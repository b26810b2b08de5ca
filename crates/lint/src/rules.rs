//! The determinism rules (DET001–DET005), the waiver grammar
//! (`// lint:allow(DETNNN: reason)`), and the test-code mask that keeps
//! `#[cfg(test)]` modules and `#[test]` functions out of scope.
//!
//! Every rule guards a *runtime byte-identity invariant* that the test
//! battery enforces dynamically (serial==parallel, warm==cold,
//! online==offline, snapshot==replay); the lint moves the
//! enforcement to the source level, before a nondeterminism bug is ever
//! executed. See `docs/LINTING.md` for the rule table and
//! `ARCHITECTURE.md` for the invariant each rule maps to.

use crate::lexer::{lex, LexedFile, Token, TokenKind, WaiverComment};
use std::collections::BTreeSet;

/// A lint rule identifier. `DET` rules are determinism findings; `WVR`
/// rules police the waiver grammar itself (a waiver is a claim about the
/// code and must stay justified and alive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Order-sensitive iteration hazard: `HashMap`/`HashSet` in a
    /// schedule-affecting crate.
    Det001,
    /// Wall-clock read (`Instant::now`/`SystemTime::now`) outside a
    /// waived timing-capture site.
    Det002,
    /// `unwrap`/`expect`/`panic!` family in engine/scheduler/solver
    /// non-test code.
    Det003,
    /// Per-call `available_parallelism()` or thread-identity-dependent
    /// branching.
    Det004,
    /// Float `==`/`!=` comparison in objective/accounting code.
    Det005,
    /// Malformed waiver (unparseable, or missing the mandatory reason).
    Wvr001,
    /// Waiver naming an unknown rule id.
    Wvr002,
    /// Stale waiver: its rule produced no finding on the covered lines.
    Wvr003,
}

impl RuleId {
    /// The `DET00N`/`WVR00N` code rendered in diagnostics.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::Det001 => "DET001",
            RuleId::Det002 => "DET002",
            RuleId::Det003 => "DET003",
            RuleId::Det004 => "DET004",
            RuleId::Det005 => "DET005",
            RuleId::Wvr001 => "WVR001",
            RuleId::Wvr002 => "WVR002",
            RuleId::Wvr003 => "WVR003",
        }
    }

    /// The waivable determinism rules, in code order. `WVR` rules are not
    /// waivable: they police the waiver grammar itself.
    pub const DET_RULES: [RuleId; 5] = [
        RuleId::Det001,
        RuleId::Det002,
        RuleId::Det003,
        RuleId::Det004,
        RuleId::Det005,
    ];

    /// One-line description for `--list-rules` and the docs.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::Det001 => {
                "order-sensitive iteration: HashMap/HashSet in schedule-affecting code \
                 (use BTreeMap/BTreeSet or sort before iterating)"
            }
            RuleId::Det002 => {
                "wall-clock read (Instant::now/SystemTime::now) outside a waived \
                 timing-capture site scrubbed by without_wall_clock"
            }
            RuleId::Det003 => {
                "unwrap/expect/panic! in engine/scheduler/solver non-test code \
                 (use typed errors or waive with the documented invariant)"
            }
            RuleId::Det004 => {
                "per-call available_parallelism()/thread-identity branching \
                 (cache in a OnceLock; never branch on thread ids)"
            }
            RuleId::Det005 => {
                "float ==/!= comparison in objective/accounting code \
                 (use total_cmp or an explicit epsilon)"
            }
            RuleId::Wvr001 => "waiver is malformed or missing its mandatory reason",
            RuleId::Wvr002 => "waiver names an unknown rule id",
            RuleId::Wvr003 => "stale waiver: its rule no longer fires on the covered lines",
        }
    }

    fn from_code(code: &str) -> Option<RuleId> {
        Self::DET_RULES.iter().copied().find(|r| r.code() == code)
    }
}

/// Where each rule looks. [`ScopeMode::Workspace`] encodes the real
/// WaterWise crate layout; [`ScopeMode::Everywhere`] applies every rule to
/// every scanned file and exists for the fixture battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeMode {
    Workspace,
    Everywhere,
}

/// Crates whose iteration order / panics can reach a schedule: the solver,
/// the simulation engine, and the scheduler implementations.
const SCHEDULE_AFFECTING: &[&str] = &[
    "crates/core/src/",
    "crates/cluster/src/",
    "crates/milp/src/",
];

/// Crates that must stay panic-free (DET003): the schedule-affecting set
/// plus the serving layer — a panic in the multi-session host poisons
/// shared admission state and takes every tenant's session down with it.
/// Unordered-map iteration (DET001) stays out of scope for the service:
/// its maps are response/routing plumbing whose order never reaches a
/// schedule (the engine orders by `(time, seq)` event keys alone).
const PANIC_FREE: &[&str] = &[
    "crates/core/src/",
    "crates/cluster/src/",
    "crates/milp/src/",
    "crates/service/src/",
];

/// Everything that executes between a request and a committed placement;
/// bench drivers (which *measure* wall time) and the vendored compat stubs
/// are deliberately outside.
const WALL_CLOCK_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/cluster/src/",
    "crates/milp/src/",
    "crates/service/src/",
    "crates/sustain/src/",
    "crates/telemetry/src/",
    "crates/traces/src/",
    "src/",
];

/// Objective/accounting code: footprint math, objective assembly, the
/// scheduler's numerics, and the engine's accounting. The simplex kernel is
/// excluded on purpose — exact `== 0.0` sparsity tests are its correct
/// idiom.
const FLOAT_EQ_SCOPE: &[&str] = &[
    "crates/sustain/src/",
    "crates/core/src/objective.rs",
    "crates/core/src/sched/",
    "crates/cluster/src/state.rs",
    "crates/cluster/src/engine/",
];

fn in_scope(prefixes: &[&str], rel_path: &str) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p))
}

fn rule_applies(rule: RuleId, rel_path: &str, mode: ScopeMode) -> bool {
    if mode == ScopeMode::Everywhere {
        return true;
    }
    match rule {
        RuleId::Det001 => in_scope(SCHEDULE_AFFECTING, rel_path),
        RuleId::Det003 => in_scope(PANIC_FREE, rel_path),
        RuleId::Det002 => in_scope(WALL_CLOCK_SCOPE, rel_path),
        RuleId::Det004 => true,
        RuleId::Det005 => in_scope(FLOAT_EQ_SCOPE, rel_path),
        // Waiver-grammar rules follow the waivers, wherever they are.
        RuleId::Wvr001 | RuleId::Wvr002 | RuleId::Wvr003 => true,
    }
}

/// One diagnostic. Waived findings are kept (with their reason) so the JSON
/// report is a complete account; the console and the exit code only consider
/// unwaived ones.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
    /// `Some(reason)` when an inline waiver covers this finding.
    pub waived: Option<String>,
}

impl Finding {
    /// Render in the `path:line: CODE message` shape used by
    /// `ScenarioError::located` diagnostics.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} {}",
            self.path,
            self.line,
            self.rule.code(),
            self.message
        )
    }
}

/// A successfully parsed waiver awaiting a finding to justify it.
#[derive(Debug)]
struct ParsedWaiver {
    line: u32,
    rule: RuleId,
    reason: String,
    used: bool,
}

/// Lint one file. `rel_path` must be workspace-relative with forward
/// slashes — it drives rule scoping and appears verbatim in diagnostics.
pub fn check_file(rel_path: &str, src: &str, mode: ScopeMode) -> Vec<Finding> {
    let lexed = lex(src);
    let mask = test_mask(&lexed.tokens);
    let test_lines = test_line_set(&lexed.tokens, &mask);

    let mut findings = Vec::new();
    det_rules(rel_path, &lexed, &mask, mode, &mut findings);

    let mut waivers = Vec::new();
    parse_waivers(rel_path, &lexed.waivers, &mut waivers, &mut findings);
    apply_waivers(&mut waivers, &mut findings);
    report_stale(rel_path, &waivers, &test_lines, &mut findings);

    findings.sort_by_key(|a| (a.line, a.rule));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule && a.message == b.message);
    findings
}

/// Token indices inside `#[cfg(test)]` items or `#[test]` functions. The
/// determinism rules skip these: `unwrap()` is the correct idiom *inside*
/// the tests that enforce the invariants.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let Some(attr_end) = match_test_attr(tokens, i) else {
            i += 1;
            continue;
        };
        // Skip any further attributes between the test attribute and the
        // item it decorates (`#[cfg(test)] #[allow(...)] mod tests`).
        let mut j = attr_end;
        while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
            j = skip_balanced(tokens, j + 1, '[', ']');
        }
        // The item body ends at its matching `}`; an item with no body
        // (`#[cfg(test)] use super::*;`) ends at `;`.
        let mut end = tokens.len();
        let mut k = j;
        while k < tokens.len() {
            match tokens[k].kind {
                TokenKind::Punct(';') => {
                    end = k + 1;
                    break;
                }
                TokenKind::Punct('{') => {
                    end = skip_balanced(tokens, k, '{', '}');
                    break;
                }
                _ => k += 1,
            }
        }
        for slot in mask.iter_mut().take(end).skip(i) {
            *slot = true;
        }
        i = end;
    }
    mask
}

/// If `tokens[i..]` starts a `#[test]`-like or `#[cfg(test)]`-like
/// attribute, return the index just past its closing `]`.
fn match_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if !(tokens.get(i)?.is_punct('#') && tokens.get(i + 1)?.is_punct('[')) {
        return None;
    }
    let end = skip_balanced(tokens, i + 1, '[', ']');
    let body = &tokens[i + 2..end.saturating_sub(1)];
    let is_test = match body.first().and_then(Token::ident) {
        // `#[cfg(test)]` and compositions like `#[cfg(all(test, unix))]`,
        // but never `#[cfg(not(test))]` — that attribute marks *live* code.
        Some("cfg") => {
            body.iter().any(|t| t.is_ident("test")) && !body.iter().any(|t| t.is_ident("not"))
        }
        Some(_) => body
            .iter()
            .filter_map(Token::ident)
            .next_back()
            .is_some_and(|last| last == "test"),
        None => false,
    };
    is_test.then_some(end)
}

/// Index just past the bracket that matches `tokens[open_idx]`.
fn skip_balanced(tokens: &[Token], open_idx: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut i = open_idx;
    while i < tokens.len() {
        if tokens[i].is_punct(open) {
            depth += 1;
        } else if tokens[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// 1-based lines that contain test-masked tokens (used to silence the
/// stale-waiver check inside test code).
fn test_line_set(tokens: &[Token], mask: &[bool]) -> BTreeSet<u32> {
    tokens
        .iter()
        .zip(mask)
        .filter(|(_, m)| **m)
        .map(|(t, _)| t.line)
        .collect()
}

/// Run the five determinism rules over the token stream.
fn det_rules(
    rel_path: &str,
    lexed: &LexedFile,
    mask: &[bool],
    mode: ScopeMode,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    let applies = |rule: RuleId| rule_applies(rule, rel_path, mode);
    let mut push = |rule: RuleId, line: u32, message: String| {
        out.push(Finding {
            path: rel_path.to_string(),
            line,
            rule,
            message,
            waived: None,
        });
    };
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let tok = &toks[i];
        match &tok.kind {
            TokenKind::Ident(name) => match name.as_ref() {
                "HashMap" | "HashSet" if applies(RuleId::Det001) => {
                    push(
                        RuleId::Det001,
                        tok.line,
                        format!(
                            "`{name}` iteration order is hash-seeded; schedule-affecting code \
                             must use `BTree{}` or sort before iterating",
                            &name[4..]
                        ),
                    );
                }
                "Instant" | "SystemTime"
                    if applies(RuleId::Det002)
                        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                        && toks.get(i + 3).is_some_and(|t| t.is_ident("now")) =>
                {
                    push(
                        RuleId::Det002,
                        tok.line,
                        format!(
                            "wall-clock read `{name}::now()`; only `without_wall_clock`-scrubbed \
                             timing captures may read the clock (waive with the scrub site)"
                        ),
                    );
                }
                "unwrap" | "expect"
                    if applies(RuleId::Det003)
                        && i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
                {
                    push(
                        RuleId::Det003,
                        tok.line,
                        format!(
                            "`.{name}()` in engine/scheduler/solver code; convert to a typed \
                             error or waive with the invariant that rules the panic out"
                        ),
                    );
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if applies(RuleId::Det003)
                        && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
                {
                    push(
                        RuleId::Det003,
                        tok.line,
                        format!(
                            "`{name}!` in engine/scheduler/solver code; convert to a typed \
                             error or waive with the invariant that rules the panic out"
                        ),
                    );
                }
                "available_parallelism" if applies(RuleId::Det004) => {
                    push(
                        RuleId::Det004,
                        tok.line,
                        "`available_parallelism()` re-reads cgroup quotas per call; cache the \
                         result in a `OnceLock` (the PR 6 hot-path bug class)"
                            .to_string(),
                    );
                }
                "ThreadId" if applies(RuleId::Det004) => {
                    push(
                        RuleId::Det004,
                        tok.line,
                        "thread-identity-dependent code; schedules must not depend on which \
                         thread runs a task"
                            .to_string(),
                    );
                }
                "current"
                    if applies(RuleId::Det004)
                        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                        && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
                        && toks.get(i + 3).is_some_and(|t| t.is_punct('.'))
                        && toks.get(i + 4).is_some_and(|t| t.is_ident("id")) =>
                {
                    push(
                        RuleId::Det004,
                        tok.line,
                        "`thread::current().id()` branching; schedules must not depend on \
                         which thread runs a task"
                            .to_string(),
                    );
                }
                _ => {}
            },
            TokenKind::EqEq | TokenKind::NotEq if applies(RuleId::Det005) => {
                let float_before = i > 0 && toks[i - 1].kind == TokenKind::Float;
                let float_after = match toks.get(i + 1).map(|t| &t.kind) {
                    Some(TokenKind::Float) => true,
                    Some(TokenKind::Punct('-')) => {
                        toks.get(i + 2).map(|t| &t.kind) == Some(&TokenKind::Float)
                    }
                    _ => false,
                };
                if float_before || float_after {
                    let op = if tok.kind == TokenKind::EqEq {
                        "=="
                    } else {
                        "!="
                    };
                    push(
                        RuleId::Det005,
                        tok.line,
                        format!(
                            "float `{op}` against a literal in objective/accounting code; \
                             use `total_cmp` or an explicit epsilon"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Parse `lint:allow(RULE: reason)` comments. Malformed waivers become
/// findings (WVR001/WVR002) — an unjustified waiver must never silently
/// turn the rule off.
fn parse_waivers(
    rel_path: &str,
    comments: &[WaiverComment],
    waivers: &mut Vec<ParsedWaiver>,
    findings: &mut Vec<Finding>,
) {
    for comment in comments {
        let mut bad = |rule: RuleId, message: String| {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: comment.line,
                rule,
                message,
                waived: None,
            });
        };
        let Some(start) = comment.text.find("lint:allow") else {
            continue;
        };
        let rest = comment.text[start + "lint:allow".len()..].trim_start();
        let Some(body) = rest
            .strip_prefix('(')
            .and_then(|r| r.rfind(')').map(|end| &r[..end]))
        else {
            bad(
                RuleId::Wvr001,
                "malformed waiver; expected `lint:allow(DET00N: reason)`".to_string(),
            );
            continue;
        };
        let (code, reason) = match body.split_once(':') {
            Some((code, reason)) => (code.trim(), reason.trim()),
            None => (body.trim(), ""),
        };
        let Some(rule) = RuleId::from_code(code) else {
            bad(
                RuleId::Wvr002,
                format!("waiver names unknown rule `{code}`; known rules are DET001..DET005"),
            );
            continue;
        };
        if reason.is_empty() {
            bad(
                RuleId::Wvr001,
                format!(
                    "waiver for {code} has no reason; a waiver is a claim and must say why \
                     (`lint:allow({code}: reason)`)"
                ),
            );
            continue;
        }
        waivers.push(ParsedWaiver {
            line: comment.line,
            rule,
            reason: reason.to_string(),
            used: false,
        });
    }
}

/// A waiver covers findings of its rule on its own line (trailing comment)
/// and on the next line (comment-above style).
fn apply_waivers(waivers: &mut [ParsedWaiver], findings: &mut [Finding]) {
    for finding in findings.iter_mut() {
        if finding.waived.is_some() {
            continue;
        }
        if let Some(waiver) = waivers.iter_mut().find(|w| {
            w.rule == finding.rule && (w.line == finding.line || w.line + 1 == finding.line)
        }) {
            waiver.used = true;
            finding.waived = Some(waiver.reason.clone());
        }
    }
}

/// An unused waiver outside test code is stale: either the violation was
/// fixed (delete the waiver) or the waiver drifted away from the line it
/// used to cover (move it back).
fn report_stale(
    rel_path: &str,
    waivers: &[ParsedWaiver],
    test_lines: &BTreeSet<u32>,
    findings: &mut Vec<Finding>,
) {
    for waiver in waivers {
        if waiver.used
            || test_lines.contains(&waiver.line)
            || test_lines.contains(&(waiver.line + 1))
        {
            continue;
        }
        findings.push(Finding {
            path: rel_path.to_string(),
            line: waiver.line,
            rule: RuleId::Wvr003,
            message: format!(
                "stale waiver: {} fires on neither line {} nor line {}; remove it",
                waiver.rule.code(),
                waiver.line,
                waiver.line + 1
            ),
            waived: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<(u32, &'static str)> {
        check_file("fixture.rs", src, ScopeMode::Everywhere)
            .into_iter()
            .filter(|f| f.waived.is_none())
            .map(|f| (f.line, f.rule.code()))
            .collect()
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); let m = HashMap::new(); }\n\
                   }\n";
        assert_eq!(codes(src), vec![(1, "DET003")]);
    }

    #[test]
    fn test_fn_attribute_masks_only_that_fn() {
        let src = "#[test]\nfn t() { y.unwrap(); }\nfn live() { z.unwrap(); }\n";
        assert_eq!(codes(src), vec![(3, "DET003")]);
    }

    #[test]
    fn unwrap_or_is_not_det003() {
        assert_eq!(
            codes("fn f() { x.unwrap_or(0).expect_none_method(); }"),
            vec![]
        );
    }

    #[test]
    fn waiver_on_same_or_previous_line_suppresses() {
        let src = "// lint:allow(DET003: invariant documented here)\n\
                   fn f() { x.unwrap(); }\n\
                   fn g() { y.unwrap(); } // lint:allow(DET003: other invariant)\n";
        assert_eq!(codes(src), vec![]);
        let all = check_file("fixture.rs", src, ScopeMode::Everywhere);
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|f| f.waived.is_some()));
    }

    #[test]
    fn waiver_without_reason_is_wvr001() {
        let src = "fn f() { x.unwrap(); } // lint:allow(DET003)\n";
        assert_eq!(codes(src), vec![(1, "DET003"), (1, "WVR001")]);
    }

    #[test]
    fn unknown_rule_waiver_is_wvr002() {
        let src = "// lint:allow(DET999: whatever)\nfn f() {}\n";
        assert_eq!(codes(src), vec![(1, "WVR002")]);
    }

    #[test]
    fn stale_waiver_is_wvr003() {
        let src = "// lint:allow(DET001: used to hold a HashMap)\nfn clean() {}\n";
        assert_eq!(codes(src), vec![(1, "WVR003")]);
    }

    #[test]
    fn float_eq_triggers_on_either_side_and_negatives() {
        assert_eq!(
            codes("fn f(x: f64) { if x == 0.0 {} if 1.5 != x {} if x == -2.0 {} }"),
            vec![(1, "DET005"), (1, "DET005"), (1, "DET005")]
        );
        assert_eq!(codes("fn f(n: usize) { if n == 0 {} }"), vec![]);
    }

    #[test]
    fn wall_clock_and_parallelism_rules_fire() {
        let src = "fn f() { let t = Instant::now(); }\n\
                   fn g() { let n = std::thread::available_parallelism(); }\n\
                   fn h() { let id = std::thread::current().id(); }\n";
        assert_eq!(
            codes(src),
            vec![(1, "DET002"), (2, "DET004"), (3, "DET004")]
        );
    }

    #[test]
    fn workspace_scope_limits_rules_to_their_crates() {
        // Two `HashMap` tokens on one line collapse into a single finding.
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        assert_eq!(
            check_file("crates/core/src/x.rs", src, ScopeMode::Workspace).len(),
            1
        );
        // The service is out of DET001's scope (its maps never order a
        // schedule) ...
        assert_eq!(
            check_file("crates/service/src/x.rs", src, ScopeMode::Workspace).len(),
            0
        );
        // ... but inside DET003's: a panic in the multi-session host takes
        // every tenant down.
        let panicky = "fn f(m: &Mutex<u32>) { let g = m.lock().unwrap(); }";
        assert_eq!(
            check_file("crates/service/src/x.rs", panicky, ScopeMode::Workspace)
                .iter()
                .filter(|f| f.rule.code() == "DET003")
                .count(),
            1
        );
        assert_eq!(
            check_file("crates/bench/src/x.rs", panicky, ScopeMode::Workspace).len(),
            0
        );
    }
}
