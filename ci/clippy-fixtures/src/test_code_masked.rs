//! Test-code fixture: panicking asserts and float equality are fine inside
//! test code. Hash-ordered containers are not: DET001 covers tests too.

pub fn double(x: u32) -> u32 {
    x * 2
}

#[cfg(test)]
mod tests {
    #[test]
    fn doubles() {
        let m = std::collections::BTreeMap::<u32, u32>::new();
        assert_eq!(m.get(&1).copied().unwrap_or(super::double(1)), 2);
        assert!(f64::from(super::double(2)) == 4.0);
        Vec::<u32>::new().pop().unwrap();
    }
}
