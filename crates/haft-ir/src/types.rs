//! Value types of the IR.

use std::fmt;

/// A first-class value type.
///
/// The set intentionally mirrors the subset of LLVM types the HAFT passes
/// care about: small integers for byte/word data, `i1` for branch
/// conditions (the moral equivalent of `EFLAGS` bits — a class of state the
/// paper's control-flow protection exists to defend), `f64` for the
/// floating-point kernels, and an address type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// One-bit boolean, produced by comparisons and consumed by branches.
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// IEEE-754 double.
    F64,
    /// Byte address into the simulated flat memory.
    Ptr,
}

impl Ty {
    /// Returns the size of a value of this type in bytes as stored in memory.
    ///
    /// `I1` occupies a full byte, as it would after an `i1` store in LLVM.
    #[inline]
    pub fn size_bytes(self) -> u32 {
        match self {
            Ty::I1 | Ty::I8 => 1,
            Ty::I16 => 2,
            Ty::I32 => 4,
            Ty::I64 | Ty::F64 | Ty::Ptr => 8,
        }
    }

    /// Returns true for the integer types (including `I1` and `Ptr`).
    pub fn is_int(self) -> bool {
        !matches!(self, Ty::F64)
    }

    /// Returns true for the floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, Ty::F64)
    }

    /// Returns the mask selecting the valid low bits of a register holding
    /// a value of this type.
    #[inline]
    pub fn mask(self) -> u64 {
        match self {
            Ty::I1 => 0x1,
            Ty::I8 => 0xff,
            Ty::I16 => 0xffff,
            Ty::I32 => 0xffff_ffff,
            Ty::I64 | Ty::F64 | Ty::Ptr => u64::MAX,
        }
    }

    /// Returns the number of valid bits in a register of this type.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            Ty::I1 => 1,
            Ty::I8 => 8,
            Ty::I16 => 16,
            Ty::I32 => 32,
            Ty::I64 | Ty::F64 | Ty::Ptr => 64,
        }
    }

    /// Sign-extends the masked `bits` of this type to a full `i64`.
    #[inline]
    pub fn sext(self, raw: u64) -> i64 {
        let masked = raw & self.mask();
        match self {
            Ty::I1 => {
                if masked != 0 {
                    -1
                } else {
                    0
                }
            }
            Ty::I8 => masked as u8 as i8 as i64,
            Ty::I16 => masked as u16 as i16 as i64,
            Ty::I32 => masked as u32 as i32 as i64,
            Ty::I64 | Ty::F64 | Ty::Ptr => masked as i64,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::I1 => "i1",
            Ty::I8 => "i8",
            Ty::I16 => "i16",
            Ty::I32 => "i32",
            Ty::I64 => "i64",
            Ty::F64 => "f64",
            Ty::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_llvm_conventions() {
        assert_eq!(Ty::I1.size_bytes(), 1);
        assert_eq!(Ty::I8.size_bytes(), 1);
        assert_eq!(Ty::I16.size_bytes(), 2);
        assert_eq!(Ty::I32.size_bytes(), 4);
        assert_eq!(Ty::I64.size_bytes(), 8);
        assert_eq!(Ty::F64.size_bytes(), 8);
        assert_eq!(Ty::Ptr.size_bytes(), 8);
    }

    #[test]
    fn masks_cover_exactly_the_type_bits() {
        assert_eq!(Ty::I1.mask(), 1);
        assert_eq!(Ty::I8.mask(), 0xff);
        assert_eq!(Ty::I32.mask(), 0xffff_ffff);
        assert_eq!(Ty::I64.mask(), u64::MAX);
    }

    #[test]
    fn sign_extension_is_correct_for_negative_values() {
        assert_eq!(Ty::I8.sext(0xff), -1);
        assert_eq!(Ty::I8.sext(0x7f), 127);
        assert_eq!(Ty::I16.sext(0x8000), i16::MIN as i64);
        assert_eq!(Ty::I32.sext(0xffff_ffff), -1);
        assert_eq!(Ty::I1.sext(1), -1);
        assert_eq!(Ty::I1.sext(0), 0);
    }

    #[test]
    fn int_float_classification() {
        assert!(Ty::I64.is_int());
        assert!(Ty::Ptr.is_int());
        assert!(!Ty::F64.is_int());
        assert!(Ty::F64.is_float());
    }

    #[test]
    fn display_round_trips_names() {
        for (ty, name) in [
            (Ty::I1, "i1"),
            (Ty::I8, "i8"),
            (Ty::I16, "i16"),
            (Ty::I32, "i32"),
            (Ty::I64, "i64"),
            (Ty::F64, "f64"),
            (Ty::Ptr, "ptr"),
        ] {
            assert_eq!(ty.to_string(), name);
        }
    }
}
