//! Numeric newtypes for the physical quantities used throughout WaterWise.
//!
//! These are deliberately thin: each wraps an `f64`, supports the arithmetic
//! the models need, and exposes `value()` for interop. They exist to keep
//! call sites honest about units (the paper mixes kWh, L/kWh, gCO2/kWh, and
//! seconds freely).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(pub f64);

        impl $name {
            /// Construct from a raw `f64`.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Zero value.
            #[inline]
            pub const fn zero() -> Self {
                Self(0.0)
            }

            /// The underlying numeric value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite and non-negative.
            #[inline]
            pub fn is_valid(self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }

            /// Clamp to the non-negative range.
            #[inline]
            pub fn clamp_non_negative(self) -> Self {
                Self(self.0.max(0.0))
            }

            /// Element-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Element-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.4} {}", self.0, $suffix)
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }
    };
}

unit!(
    /// Energy in kilowatt-hours (kWh).
    KilowattHours,
    "kWh"
);
unit!(
    /// Carbon mass in grams of CO2-equivalent (gCO2e).
    Co2Grams,
    "gCO2"
);
unit!(
    /// Water volume in liters (L).
    Liters,
    "L"
);
unit!(
    /// Water intensity in liters per kilowatt-hour (L/kWh).
    LitersPerKwh,
    "L/kWh"
);
unit!(
    /// Duration in seconds.
    Seconds,
    "s"
);
unit!(
    /// Duration in hours.
    Hours,
    "h"
);
unit!(
    /// Electrical power in watts.
    Watts,
    "W"
);

impl Seconds {
    /// Convert to hours.
    #[inline]
    pub fn to_hours(self) -> Hours {
        Hours(self.0 / 3600.0)
    }

    /// Construct from a number of hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self(hours * 3600.0)
    }

    /// Construct from a number of minutes.
    #[inline]
    pub fn from_minutes(minutes: f64) -> Self {
        Self(minutes * 60.0)
    }
}

impl Watts {
    /// Energy consumed when drawing this power for the given duration.
    #[inline]
    pub fn energy_over(self, duration: Seconds) -> KilowattHours {
        KilowattHours(self.0 * duration.to_hours().value() / 1000.0)
    }
}

impl KilowattHours {
    /// The average power implied by this much energy over the given duration.
    #[inline]
    pub fn average_power(self, duration: Seconds) -> Watts {
        let hours = duration.to_hours().value();
        if hours <= 0.0 {
            Watts::zero()
        } else {
            Watts(self.0 * 1000.0 / hours)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = KilowattHours::new(2.0);
        let b = KilowattHours::new(3.0);
        assert_eq!((a + b).value(), 5.0);
        assert_eq!((b - a).value(), 1.0);
        assert_eq!((a * 2.0).value(), 4.0);
        assert_eq!((b / 2.0).value(), 1.5);
        assert!((b / a - 1.5).abs() < 1e-12);
    }

    #[test]
    fn seconds_hours_conversion() {
        let s = Seconds::from_hours(2.0);
        assert_eq!(s.value(), 7200.0);
        assert!((s.to_hours().value() - 2.0).abs() < 1e-12);
        let m = Seconds::from_minutes(90.0);
        assert!((m.to_hours().value() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn power_energy_relation() {
        let p = Watts::new(500.0);
        let e = p.energy_over(Seconds::from_hours(2.0));
        assert!((e.value() - 1.0).abs() < 1e-12);
        let back = e.average_power(Seconds::from_hours(2.0));
        assert!((back.value() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_power_is_zero() {
        let e = KilowattHours::new(1.0);
        assert_eq!(e.average_power(Seconds::zero()).value(), 0.0);
    }

    #[test]
    fn validity_and_clamping() {
        assert!(Liters::new(1.0).is_valid());
        assert!(!Liters::new(-1.0).is_valid());
        assert!(!Liters::new(f64::NAN).is_valid());
        assert_eq!(Liters::new(-3.0).clamp_non_negative().value(), 0.0);
    }

    #[test]
    fn sum_and_display() {
        let total: Liters = vec![Liters::new(1.0), Liters::new(2.5)].into_iter().sum();
        assert!((total.value() - 3.5).abs() < 1e-12);
        assert!(format!("{total}").contains('L'));
    }
}
