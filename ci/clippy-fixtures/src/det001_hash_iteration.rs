//! DET001 positive: hash-ordered containers.

#[expect(clippy::disallowed_types, reason = "fixture: DET001 fires here")]
fn carried_assignments() {
    let carried = std::collections::HashMap::<u64, u32>::new();
    let mut seen = std::collections::HashSet::<u64>::new();
    for (job, region) in &carried {
        seen.insert(*job + u64::from(*region));
    }
}
