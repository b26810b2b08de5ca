//! `KEYS` is the whole configuration surface: its rows are well-formed, and
//! `docs/SCENARIOS.md`'s key tables print exactly those rows — a key, a
//! grammar, an environment alias or a meaning the table lacks, or one it
//! has that the docs miss, fails here.

use waterwise_core::scenario::KEYS;

/// The key tables `docs/SCENARIOS.md` must print: per section, its heading
/// and one row per key.
fn key_tables() -> Vec<String> {
    let cell = |text: &str| text.replace('|', "\\|");
    let mut lines = Vec::new();
    for (i, key) in KEYS.iter().enumerate() {
        if i == 0 || KEYS[i - 1].section != key.section {
            lines.push(format!("### `[{}]`", key.section));
        }
        let env = key.env.map_or("—".to_string(), |var| format!("`{var}`"));
        let required = if key.required { " **Required.**" } else { "" };
        lines.push(format!(
            "| `{}` | {} | {env} | {}{required} |",
            key.name,
            cell(key.grammar),
            cell(key.doc)
        ));
    }
    lines
}

#[test]
fn the_docs_key_tables_print_exactly_the_key_rows() {
    let doc = include_str!("../../../docs/SCENARIOS.md");
    let documented: Vec<&str> = doc
        .lines()
        .filter(|line| line.starts_with("### `[") || line.starts_with("| `"))
        .collect();
    let expected = key_tables();
    assert_eq!(
        documented,
        expected,
        "docs/SCENARIOS.md's key tables drifted from KEYS; they should read:\n{}",
        expected.join("\n")
    );
}

#[test]
fn sections_are_contiguous_and_keys_unique() {
    for (i, key) in KEYS.iter().enumerate() {
        let later = &KEYS[i + 1..];
        assert!(
            !later
                .iter()
                .any(|k| k.section == key.section && k.name == key.name),
            "[{}] {} is declared twice",
            key.section,
            key.name
        );
        let resumed = later
            .iter()
            .skip_while(|k| k.section == key.section)
            .any(|k| k.section == key.section);
        assert!(!resumed, "[{}] is split in two", key.section);
    }
}
