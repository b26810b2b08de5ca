//! DET005 (docs/LINTING.md): objective and accounting code never compares a float with `==` /
//! `!=` against a float literal. Clippy's `float_cmp` ignores `x == 0.0` and exempts no test
//! code, so this scan carries the rule, skipping comments, strings, `tests.rs` and test items.

use std::path::Path;

/// Files and directories (relative to the workspace root) in scope.
const SCOPE: &[&str] = &[
    "crates/sustain/src",
    "crates/core/src/objective.rs",
    "crates/core/src/sched",
    "crates/cluster/src/state.rs",
    "crates/cluster/src/engine",
];

/// Index of the first `needle` at or after `from`; past the end if none.
fn find(code: &[u8], from: usize, needle: &[u8]) -> usize {
    let mut rest = code.get(from..).unwrap_or_default().windows(needle.len());
    from + rest.position(|w| w == needle).unwrap_or(code.len())
}

/// Overwrite `code[from..to]` with spaces, keeping newlines (and so lines).
fn blank(code: &mut [u8], from: usize, to: usize) {
    let to = to.min(code.len());
    let text = code[from..to].iter_mut().filter(|c| **c != b'\n');
    text.for_each(|c| *c = b' ');
}

/// `src` with comments, string and char literals, and every `#[cfg(test)]`
/// / `#[test]` item (but not `#[cfg(not(test))]`) blanked.
fn code_only(src: &str) -> Vec<u8> {
    let (mut code, mut i) = (src.as_bytes().to_vec(), 0);
    while i < code.len() {
        let hashes = code[i + 1..].iter().take_while(|&&c| c == b'#').count();
        let end = match code[i] {
            b'/' if code.get(i + 1) == Some(&b'/') => Some(find(&code, i, b"\n")),
            b'/' if code.get(i + 1) == Some(&b'*') => Some(find(&code, i + 2, b"*/") + 2),
            b'r' if code.get(i + 1 + hashes) == Some(&b'"') => {
                let close = [&b"\""[..], &vec![b'#'; hashes]].concat();
                Some(find(&code, i + 2 + hashes, &close) + close.len())
            }
            b'"' => {
                let mut k = i + 1;
                while k < code.len() && code[k] != b'"' {
                    k += if code[k] == b'\\' { 2 } else { 1 };
                }
                Some(k + 1)
            }
            // A char literal closes after one (maybe escaped) char; a lifetime does not.
            b'\'' if code.get(i + 1) == Some(&b'\\') => Some(find(&code, i + 3, b"'") + 1),
            b'\'' => src[i + 1..].chars().next().map(|c| i + 2 + c.len_utf8()),
            _ => None,
        }
        .filter(|&end| code[i] != b'\'' || code.get(end - 1) == Some(&b'\''));
        if let Some(end) = end {
            blank(&mut code, i, end);
        }
        i = end.unwrap_or(i + 1);
    }
    let mut i = 0;
    while let Some(at) = Some(find(&code, i, b"#[")).filter(|&at| at < code.len()) {
        i = find(&code, at, b"]");
        let attr = String::from_utf8_lossy(&code[at + 2..i]).into_owned();
        let cfg_test = attr.starts_with("cfg(") && attr.contains("test") && !attr.contains("not(");
        if !cfg_test && attr != "test" && !attr.ends_with("::test") {
            continue;
        }
        // The item ends at `;`, or at the `}` that closes its first `{`.
        let mut depth = 0;
        while i < code.len() && !(code[i] == b';' && depth == 0 || code[i] == b'}' && depth == 1) {
            depth += i32::from(code[i] == b'{') - i32::from(code[i] == b'}');
            i += 1;
        }
        blank(&mut code, at, i + 1);
    }
    code
}

/// Whether `run` is a float literal: `1.`, `0.5`, `1e-9`, `2_f64`.
fn is_float(run: &[u8]) -> bool {
    let exponent = |w: &[u8]| w[0].is_ascii_digit() && b"eE".contains(&w[1]);
    let suffix = run.ends_with(b"f64") || run.ends_with(b"f32");
    let shape = run.contains(&b'.') || run.windows(2).any(exponent) || suffix;
    shape && run.first().is_some_and(u8::is_ascii_digit) && !run.starts_with(b"0x")
}

/// `(line, operator)` of every float-literal equality in `src`.
fn float_literal_compares(src: &str) -> Vec<(usize, &'static str)> {
    let code = code_only(src);
    let word = |c: &u8| c.is_ascii_alphanumeric() || b"_.".contains(c);
    let mut found = Vec::new();
    for at in 0..code.len().saturating_sub(1) {
        let op = match &code[at..at + 2] {
            b"==" => "==",
            b"!=" => "!=",
            _ => continue,
        };
        let left = code[..at].trim_ascii_end();
        let left = &left[left.len() - left.iter().rev().take_while(|c| word(c)).count()..];
        let right = code[at + 2..].trim_ascii_start();
        let right = right.strip_prefix(b"-").unwrap_or(right).trim_ascii_start();
        let right = &right[..right.iter().take_while(|c| word(c)).count()];
        if is_float(left) || is_float(right) {
            found.push((1 + code[..at].iter().filter(|&&c| c == b'\n').count(), op));
        }
    }
    found
}

/// Push each finding under `rel` onto `out`; return the number of files read.
fn scan(root: &Path, rel: &str, out: &mut Vec<String>) -> usize {
    let path = root.join(rel);
    if path.is_dir() {
        let entries = std::fs::read_dir(&path).expect("scope directory is readable");
        let names = entries.map(|e| e.expect("entry").file_name().into_string().expect("utf-8"));
        return names.map(|n| scan(root, &format!("{rel}/{n}"), out)).sum();
    }
    if !rel.ends_with(".rs") || rel.ends_with("/tests.rs") {
        return 0;
    }
    let src = std::fs::read_to_string(&path).expect("scope file is readable");
    let found = float_literal_compares(&src).into_iter();
    out.extend(found.map(|(line, op)| format!("{rel}:{line}: `{op}` against a float literal")));
    1
}

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("ci/clippy-fixtures/src");
    std::fs::read_to_string(dir.join(name)).expect("fixture is readable")
}

#[test]
fn a_float_literal_compare_is_flagged_at_its_line() {
    let found = float_literal_compares(&fixture("det005_float_eq.rs"));
    assert_eq!(found, [(4, "=="), (4, "!=")]);
}

#[test]
fn ordered_compares_and_test_code_pass() {
    assert_eq!(float_literal_compares(&fixture("det005_total_cmp.rs")), []);
    assert_eq!(float_literal_compares(&fixture("test_code_masked.rs")), []);
}

#[test]
fn objective_and_accounting_code_compares_no_float_literal() {
    let (root, mut found) = (Path::new(env!("CARGO_MANIFEST_DIR")), Vec::new());
    let files: usize = SCOPE.iter().map(|rel| scan(root, rel, &mut found)).sum();
    assert!(files > 20, "the scope matched only {files} files");
    assert!(found.is_empty(), "use total_cmp or an epsilon: {found:#?}");
}
