//! The line-delimited-JSON wire format of the TCP front-end.
//!
//! One JSON object per `\n`-terminated line, in both directions. The
//! format is deliberately flat (no nesting, no arrays) so this hand-rolled
//! codec can stay small: the workspace builds fully offline against a
//! no-op `serde` stand-in (see `crates/compat/README.md`), so the service
//! cannot lean on `serde_json`. The full field reference lives in
//! `docs/ONLINE_SERVICE.md`.
//!
//! ```
//! use waterwise_service::wire;
//!
//! let request = wire::parse_request(
//!     r#"{"id":1,"benchmark":"canneal","home_region":"Oregon",
//!         "submit_time":12.5,"execution_time":600,"energy":0.05}"#,
//! )
//! .unwrap();
//! assert_eq!(request.spec.id.0, 1);
//! // Without explicit estimates, the scheduler sees the actuals.
//! assert_eq!(request.spec.estimated_execution_time.value(), 600.0);
//! ```

use crate::request::{PlacementRequest, PlacementResponse};
use std::collections::HashMap;
use std::fmt::Write as _;
use waterwise_sustain::{KilowattHours, Seconds};
use waterwise_telemetry::Region;
use waterwise_traces::{Benchmark, JobId, JobSpec};

/// A parsed flat JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Number(f64),
    String(String),
    Bool(bool),
    Null,
}

impl Value {
    fn describe(&self) -> &'static str {
        match self {
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Bool(_) => "a boolean",
            Value::Null => "null",
        }
    }
}

/// Parse one flat JSON object (`{"key": value, ...}` with number / string /
/// boolean / null values) into a key→value map. Nested objects and arrays
/// are rejected — the wire format never uses them. Shared with the
/// admission journal codec (`crate::journal`), which reuses the request
/// grammar plus `seq`/`tenant` fields.
pub(crate) fn parse_flat_object(line: &str) -> Result<HashMap<String, Value>, String> {
    let mut chars = line.char_indices().peekable();
    let mut fields = HashMap::new();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
        while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
    }

    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected '\"', found {other:?}")),
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                None => return Err("unterminated string".to_string()),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let hex: String = (0..4)
                            .filter_map(|_| chars.next().map(|(_, c)| c))
                            .collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape \\u{hex}"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u escape \\u{hex}"))?,
                        );
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("expected a JSON object starting with '{'".to_string()),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ':')) => {}
                other => return Err(format!("expected ':' after key {key:?}, found {other:?}")),
            }
            skip_ws(&mut chars);
            let value = match chars.peek() {
                Some((_, '"')) => Value::String(parse_string(&mut chars)?),
                Some((_, '{')) | Some((_, '[')) => {
                    return Err(format!("nested values are not allowed (key {key:?})"));
                }
                Some(_) => {
                    // A number, boolean, or null: runs to the next
                    // delimiter.
                    let mut token = String::new();
                    while let Some((_, c)) = chars.peek() {
                        if *c == ',' || *c == '}' || c.is_ascii_whitespace() {
                            break;
                        }
                        token.push(*c);
                        chars.next();
                    }
                    match token.as_str() {
                        "true" => Value::Bool(true),
                        "false" => Value::Bool(false),
                        "null" => Value::Null,
                        _ => Value::Number(
                            token
                                .parse::<f64>()
                                .map_err(|_| format!("bad value {token:?} for key {key:?}"))?,
                        ),
                    }
                }
                None => return Err(format!("missing value for key {key:?}")),
            };
            fields.insert(key, value);
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((_, c)) = chars.next() {
        return Err(format!("trailing content after object: {c:?}"));
    }
    Ok(fields)
}

pub(crate) fn number(fields: &HashMap<String, Value>, key: &str) -> Result<Option<f64>, String> {
    match fields.get(key) {
        None | Some(Value::Null) => Ok(None),
        // Rust's f64 parser accepts "inf"/"NaN", and a valid-JSON 1e999
        // saturates to +inf. A non-finite value admitted here would kill
        // the whole serving session at the engine's event queue instead of
        // being answered in-band, so finiteness is part of the wire
        // grammar for every numeric field.
        Some(Value::Number(n)) if !n.is_finite() => {
            Err(format!("{key} must be a finite number, got {n}"))
        }
        Some(Value::Number(n)) => Ok(Some(*n)),
        Some(other) => Err(format!("{key} must be a number, got {}", other.describe())),
    }
}

/// A required-to-be-non-negative number (times, energies): negatives would
/// schedule time-reversed events or negative footprints.
fn non_negative(value: f64, key: &str) -> Result<f64, String> {
    if value < 0.0 {
        Err(format!("{key} must be non-negative, got {value}"))
    } else {
        Ok(value)
    }
}

pub(crate) fn string<'a>(
    fields: &'a HashMap<String, Value>,
    key: &str,
) -> Result<Option<&'a str>, String> {
    match fields.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s)),
        Some(other) => Err(format!("{key} must be a string, got {}", other.describe())),
    }
}

/// Parse one request line.
///
/// Required fields: `id` (non-negative integer), `benchmark` (a Table-1
/// name, e.g. `"canneal"`), `home_region` (a region name or AWS id), and an
/// execution-time/energy pair. Times and energies accept either the plain
/// keys `execution_time` (s) / `energy` (kWh) — used for both actual and
/// estimated — or the split keys `actual_execution_time` /
/// `estimated_execution_time` / `actual_energy` / `estimated_energy` when
/// the client wants the scheduler to see estimates that differ from ground
/// truth. Optional: `submit_time` (s, default 0; authoritative only under
/// the discrete clock) and `package_bytes` (default 0).
///
/// Every numeric field must be finite, and times/energies non-negative —
/// enforced here so a hostile or buggy value is answered with an in-band
/// error instead of reaching the engine and failing the whole session.
pub fn parse_request(line: &str) -> Result<PlacementRequest, String> {
    let fields = parse_flat_object(line)?;
    request_from_fields(&fields)
}

/// [`parse_request`] plus the multi-tenant host's optional `tenant` field
/// (a non-empty string naming the tenant the request is admitted and
/// quota-accounted under; absent/null means the session's default tenant).
pub fn parse_tenant_request(line: &str) -> Result<(Option<String>, PlacementRequest), String> {
    let fields = parse_flat_object(line)?;
    let tenant = match string(&fields, "tenant")? {
        None => None,
        Some("") => return Err("tenant must be a non-empty string".to_string()),
        Some(name) => Some(name.to_string()),
    };
    Ok((tenant, request_from_fields(&fields)?))
}

/// The request grammar over already-parsed fields — shared by
/// [`parse_request`], [`parse_tenant_request`], and the admission journal
/// codec.
pub(crate) fn request_from_fields(
    fields: &HashMap<String, Value>,
) -> Result<PlacementRequest, String> {
    let id = number(fields, "id")?.ok_or("missing required field: id")?;
    // Ids ride through an f64 (the JSON number type), which is exact only
    // up to 2^53; a larger id would silently round, answering the client
    // with a different id than it sent and colliding distinct ids into
    // false duplicates. Reject instead.
    // `>=` because a wire value of 2^53 + 1 has already rounded *onto*
    // 2^53 by the time it is checked — at the boundary the original
    // digits are unrecoverable.
    const MAX_EXACT_ID: f64 = (1u64 << 53) as f64;
    if id < 0.0 || id.fract() != 0.0 || id >= MAX_EXACT_ID {
        return Err(format!(
            "id must be a non-negative integer below 2^53, got {id}"
        ));
    }
    let benchmark_name = string(fields, "benchmark")?.ok_or("missing required field: benchmark")?;
    let benchmark = Benchmark::from_name(benchmark_name)
        .ok_or_else(|| format!("unknown benchmark {benchmark_name:?}"))?;
    let region_name =
        string(fields, "home_region")?.ok_or("missing required field: home_region")?;
    let home_region = Region::from_name(region_name)
        .ok_or_else(|| format!("unknown home_region {region_name:?}"))?;

    let plain_time = number(fields, "execution_time")?;
    let actual_execution_time = non_negative(
        number(fields, "actual_execution_time")?
            .or(plain_time)
            .ok_or("missing execution time: provide execution_time or actual_execution_time")?,
        "execution time",
    )?;
    let estimated_execution_time = non_negative(
        number(fields, "estimated_execution_time")?
            .or(plain_time)
            .unwrap_or(actual_execution_time),
        "estimated_execution_time",
    )?;
    let plain_energy = number(fields, "energy")?;
    let actual_energy = non_negative(
        number(fields, "actual_energy")?
            .or(plain_energy)
            .ok_or("missing energy: provide energy or actual_energy")?,
        "energy",
    )?;
    let estimated_energy = non_negative(
        number(fields, "estimated_energy")?
            .or(plain_energy)
            .unwrap_or(actual_energy),
        "estimated_energy",
    )?;

    let submit_time = non_negative(number(fields, "submit_time")?.unwrap_or(0.0), "submit_time")?;
    let package_bytes = match number(fields, "package_bytes")? {
        None => 0,
        Some(b) if b >= 0.0 && b.fract() == 0.0 && b <= u64::MAX as f64 => b as u64,
        Some(b) => {
            return Err(format!(
                "package_bytes must be a non-negative integer, got {b}"
            ))
        }
    };

    Ok(PlacementRequest::new(JobSpec {
        id: JobId(id as u64),
        benchmark,
        submit_time: Seconds::new(submit_time),
        home_region,
        actual_execution_time: Seconds::new(actual_execution_time),
        actual_energy: KilowattHours::new(actual_energy),
        estimated_execution_time: Seconds::new(estimated_execution_time),
        estimated_energy: KilowattHours::new(estimated_energy),
        package_bytes,
    }))
}

/// Encode a job spec as a request line (without the trailing newline) —
/// the inverse of [`parse_request`], using the split actual/estimated keys
/// so estimate error survives the round trip. Trace-replay clients (the
/// perf ledger's `serve_tcp` workload, load generators) build their
/// streams with this so there is exactly one wire codec: the one the
/// service parses.
///
/// ```
/// use waterwise_service::wire;
/// use waterwise_sustain::{KilowattHours, Seconds};
/// use waterwise_telemetry::Region;
/// use waterwise_traces::{Benchmark, JobId, JobSpec};
///
/// let spec = JobSpec {
///     id: JobId(7),
///     benchmark: Benchmark::Swaptions,
///     submit_time: Seconds::new(12.5),
///     home_region: Region::Madrid,
///     actual_execution_time: Seconds::new(120.0),
///     actual_energy: KilowattHours::new(0.02),
///     estimated_execution_time: Seconds::new(100.0),
///     estimated_energy: KilowattHours::new(0.018),
///     package_bytes: 4096,
/// };
/// let line = wire::encode_request(&spec);
/// assert_eq!(wire::parse_request(&line).unwrap().spec, spec);
/// ```
pub fn encode_request(spec: &JobSpec) -> String {
    format!("{{{}}}", request_fields(spec))
}

/// [`encode_request`] with the multi-tenant host's `tenant` field — the
/// stream shape multi-tenant clients write.
pub fn encode_tenant_request(tenant: &str, spec: &JobSpec) -> String {
    format!(
        "{{\"tenant\":{},{}}}",
        json_string(tenant),
        request_fields(spec)
    )
}

/// The request's field list without the surrounding braces, so wrappers
/// (tenant requests, journal entries) can prepend their own fields while
/// keeping exactly one codec for the spec itself.
pub(crate) fn request_fields(spec: &JobSpec) -> String {
    format!(
        "\"id\":{},\"benchmark\":{},\"home_region\":{},\"submit_time\":{},\
         \"actual_execution_time\":{},\"estimated_execution_time\":{},\
         \"actual_energy\":{},\"estimated_energy\":{},\"package_bytes\":{}",
        spec.id.0,
        json_string(spec.benchmark.name()),
        json_string(spec.home_region.name()),
        json_number(spec.submit_time.value()),
        json_number(spec.actual_execution_time.value()),
        json_number(spec.estimated_execution_time.value()),
        json_number(spec.actual_energy.value()),
        json_number(spec.estimated_energy.value()),
        spec.package_bytes,
    )
}

/// Extract the job id from a placement response line; `None` for error
/// lines, non-placement lines, or garbage. The inverse clients need of
/// [`encode_response`], parsed with the same flat-JSON grammar the rest of
/// the wire uses.
pub fn placement_job_id(line: &str) -> Option<u64> {
    let fields = parse_flat_object(line).ok()?;
    match fields.get("type") {
        Some(Value::String(kind)) if kind == "placement" => {}
        _ => return None,
    }
    match fields.get("job") {
        Some(Value::Number(id)) if *id >= 0.0 && id.fract() == 0.0 => Some(*id as u64),
        _ => None,
    }
}

/// Render a JSON number (non-finite values become `null`, which the engine
/// rejects before they could ever reach a response anyway).
pub(crate) fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Escape a string for embedding in a JSON value position. Public because
/// it is the workspace's one JSON string writer (compat `serde` is a no-op):
/// `waterwise-lint` builds its machine-readable report from it too.
///
/// ```
/// use waterwise_service::wire::json_string;
///
/// assert_eq!(json_string("a\"b\n"), r#""a\"b\n""#);
/// ```
pub fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Encode one placement response line (without the trailing newline).
pub fn encode_response(response: &PlacementResponse) -> String {
    let mut line = String::with_capacity(256);
    let _ = write!(
        line,
        "{{\"type\":\"placement\",\"job\":{},\"region\":{},\"slot\":{},\
         \"decided_at\":{},\"submitted_at\":{},\"deferrals\":{},\
         \"projected_start\":{},\"projected_completion\":{},\"deadline\":{},\
         \"deadline_feasible\":{},\"projected_carbon_g\":{},\"projected_water_l\":{}",
        response.job.0,
        json_string(response.region.name()),
        response.slot,
        json_number(response.decided_at.value()),
        json_number(response.submitted_at.value()),
        response.deferrals,
        json_number(response.projected_start.value()),
        json_number(response.projected_completion.value()),
        json_number(response.deadline.value()),
        response.deadline_feasible,
        json_number(response.projection.total_carbon().value()),
        json_number(response.projection.total_water().value()),
    );
    if let Some(solver) = &response.solver {
        let _ = write!(
            line,
            ",\"solver_solves\":{},\"solver_pivots\":{},\"solver_nodes\":{}",
            solver.solves, solver.simplex_pivots, solver.nodes,
        );
    }
    line.push('}');
    line
}

/// Encode one in-band error line (without the trailing newline), reported
/// for requests that never reached the engine. `code` is the typed,
/// machine-matchable failure class (`"malformed"`, `"duplicate"`,
/// `"admission_rejected"`, `"session_closed"`); `message` is the
/// human-readable rendering.
pub fn encode_error(code: &str, job: Option<JobId>, message: &str) -> String {
    match job {
        Some(job) => format!(
            "{{\"type\":\"error\",\"code\":{},\"job\":{},\"message\":{}}}",
            json_string(code),
            job.0,
            json_string(message)
        ),
        None => format!(
            "{{\"type\":\"error\",\"code\":{},\"message\":{}}}",
            json_string(code),
            json_string(message)
        ),
    }
}

/// Extract the `code` of an in-band error line; `None` for non-error lines
/// or garbage. The client-side inverse of [`encode_error`], used by tests
/// and load generators to assert on typed rejections.
pub fn error_code(line: &str) -> Option<String> {
    let fields = parse_flat_object(line).ok()?;
    match fields.get("type") {
        Some(Value::String(kind)) if kind == "error" => {}
        _ => return None,
    }
    match fields.get("code") {
        Some(Value::String(code)) => Some(code.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwise_cluster::SolverActivity;
    use waterwise_sustain::DecisionProjection;

    #[test]
    fn string_escaping_covers_quotes_backslashes_and_control_characters() {
        assert_eq!(json_string(r#"quo"te"#), r#""quo\"te""#);
        assert_eq!(json_string(r"a\b"), r#""a\\b""#);
        assert_eq!(json_string("\n\t\r"), r#""\n\t\r""#);
        assert_eq!(json_string("\u{1f}"), r#""\u001f""#);
        // Non-ASCII passes through untouched.
        assert_eq!(json_string("—"), "\"—\"");
    }

    #[test]
    fn parses_a_full_request() {
        let request = parse_request(
            r#"{"id": 7, "benchmark": "web-serving", "home_region": "ap-south-1",
                "submit_time": 30.5, "actual_execution_time": 120,
                "estimated_execution_time": 100, "actual_energy": 0.02,
                "estimated_energy": 0.018, "package_bytes": 4096}"#,
        )
        .unwrap();
        assert_eq!(request.spec.id, JobId(7));
        assert_eq!(request.spec.benchmark, Benchmark::WebServing);
        assert_eq!(request.spec.home_region, Region::Mumbai);
        assert_eq!(request.spec.submit_time.value(), 30.5);
        assert_eq!(request.spec.actual_execution_time.value(), 120.0);
        assert_eq!(request.spec.estimated_execution_time.value(), 100.0);
        assert_eq!(request.spec.package_bytes, 4096);
    }

    #[test]
    fn plain_keys_cover_both_actuals_and_estimates() {
        let request = parse_request(
            r#"{"id":1,"benchmark":"dedup","home_region":"Zurich","execution_time":60,"energy":0.01}"#,
        )
        .unwrap();
        assert_eq!(request.spec.actual_execution_time.value(), 60.0);
        assert_eq!(request.spec.estimated_execution_time.value(), 60.0);
        assert_eq!(request.spec.actual_energy.value(), 0.01);
        assert_eq!(request.spec.estimated_energy.value(), 0.01);
        assert_eq!(request.spec.submit_time.value(), 0.0);
        assert_eq!(request.spec.package_bytes, 0);
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (line, needle) in [
            ("not json", "object"),
            (r#"{"benchmark":"dedup"}"#, "id"),
            (r#"{"id":1}"#, "benchmark"),
            (
                r#"{"id":1,"benchmark":"sorting","home_region":"Zurich"}"#,
                "benchmark",
            ),
            (
                r#"{"id":1,"benchmark":"dedup","home_region":"atlantis"}"#,
                "home_region",
            ),
            (
                r#"{"id":1,"benchmark":"dedup","home_region":"Zurich"}"#,
                "execution",
            ),
            (
                r#"{"id":1.5,"benchmark":"dedup","home_region":"Zurich","execution_time":60,"energy":0.01}"#,
                "integer",
            ),
            (r#"{"id":1,"nested":{"a":1}}"#, "nested"),
            (r#"{"id":"one"}"#, "number"),
            (r#"{"id":1} trailing"#, "trailing"),
            // Non-finite and negative numerics must be per-request errors,
            // never reach the engine (where they would kill the session).
            (
                r#"{"id":1,"benchmark":"dedup","home_region":"Zurich","submit_time":1e999,"execution_time":60,"energy":0.01}"#,
                "finite",
            ),
            (
                r#"{"id":1,"benchmark":"dedup","home_region":"Zurich","execution_time":inf,"energy":0.01}"#,
                "finite",
            ),
            (
                r#"{"id":1,"benchmark":"dedup","home_region":"Zurich","execution_time":NaN,"energy":0.01}"#,
                "finite",
            ),
            (
                r#"{"id":1,"benchmark":"dedup","home_region":"Zurich","execution_time":-60,"energy":0.01}"#,
                "non-negative",
            ),
            (
                r#"{"id":1,"benchmark":"dedup","home_region":"Zurich","execution_time":60,"energy":-0.01}"#,
                "non-negative",
            ),
            (
                r#"{"id":1,"benchmark":"dedup","home_region":"Zurich","submit_time":-5,"execution_time":60,"energy":0.01}"#,
                "non-negative",
            ),
            // 2^53 + 1 is not exactly representable in the f64 the JSON
            // number rides through; admitting it would silently answer
            // with a rounded id.
            (
                r#"{"id":9007199254740993,"benchmark":"dedup","home_region":"Zurich","execution_time":60,"energy":0.01}"#,
                "2^53",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                err.to_lowercase().contains(needle),
                "error {err:?} for {line:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn responses_round_trip_through_the_flat_parser() {
        let response = PlacementResponse {
            job: JobId(17),
            region: Region::Zurich,
            slot: 3,
            decided_at: Seconds::new(60.0),
            submitted_at: Seconds::new(12.5),
            deferrals: 1,
            projected_start: Seconds::new(62.25),
            projected_completion: Seconds::new(722.25),
            deadline: Seconds::new(837.5),
            deadline_feasible: true,
            projection: DecisionProjection::default(),
            solver: Some(SolverActivity {
                solves: 2,
                simplex_pivots: 40,
                nodes: 3,
                ..SolverActivity::default()
            }),
        };
        let line = encode_response(&response);
        let fields = parse_flat_object(&line).unwrap();
        assert_eq!(fields["type"], Value::String("placement".into()));
        assert_eq!(fields["job"], Value::Number(17.0));
        assert_eq!(fields["region"], Value::String("Zurich".into()));
        assert_eq!(fields["deadline_feasible"], Value::Bool(true));
        assert_eq!(fields["solver_pivots"], Value::Number(40.0));

        let error = encode_error("duplicate", Some(JobId(4)), "duplicate \"id\"");
        let fields = parse_flat_object(&error).unwrap();
        assert_eq!(fields["type"], Value::String("error".into()));
        assert_eq!(fields["code"], Value::String("duplicate".into()));
        assert_eq!(fields["message"], Value::String("duplicate \"id\"".into()));
        assert_eq!(error_code(&error).as_deref(), Some("duplicate"));
        assert_eq!(error_code(&line), None);
        assert_eq!(error_code("garbage"), None);
    }

    #[test]
    fn tenant_requests_round_trip() {
        let spec = JobSpec {
            id: JobId(11),
            benchmark: Benchmark::Canneal,
            submit_time: Seconds::new(30.0),
            home_region: Region::Oregon,
            actual_execution_time: Seconds::new(120.0),
            actual_energy: KilowattHours::new(0.02),
            estimated_execution_time: Seconds::new(120.0),
            estimated_energy: KilowattHours::new(0.02),
            package_bytes: 64,
        };
        let line = encode_tenant_request("team-a", &spec);
        let (tenant, request) = parse_tenant_request(&line).unwrap();
        assert_eq!(tenant.as_deref(), Some("team-a"));
        assert_eq!(request.spec, spec);

        // Plain requests parse with no tenant; plain `parse_request`
        // ignores (and tolerates) the tenant field.
        let (tenant, _) = parse_tenant_request(&encode_request(&spec)).unwrap();
        assert_eq!(tenant, None);
        assert_eq!(parse_request(&line).unwrap().spec, spec);

        // An empty or non-string tenant is malformed, in-band.
        assert!(parse_tenant_request(r#"{"tenant":"","id":1}"#)
            .unwrap_err()
            .contains("tenant"));
        assert!(parse_tenant_request(r#"{"tenant":7,"id":1}"#)
            .unwrap_err()
            .contains("string"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let fields = parse_flat_object(r#"{"message":"line\nbreak \"quoted\" A"}"#).unwrap();
        assert_eq!(
            fields["message"],
            Value::String("line\nbreak \"quoted\" A".into())
        );
    }
}
