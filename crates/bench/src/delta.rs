//! Cross-PR latency regression gating: parses two revision-keyed
//! `BENCH_service_latency.json` documents (the committed baseline and a
//! freshly measured run), computes per-scenario deltas on the metrics that
//! matter (`p50_ns`, `p99_ns`, `ops_per_sec`), and renders them as a table
//! for the CI `bench-delta` job.
//!
//! The comparison is deliberately noise-aware: a delta only counts as a
//! regression when it moves in the *worse* direction (latency up,
//! throughput down) by more than a relative threshold. Thresholds are
//! per-scenario ([`Thresholds`], parsed from a committed
//! `thresholds.json`): established scenarios gate at their calibrated
//! noise level, while scenarios listed warn-only — new ones still
//! accumulating a baseline, or known-noisy ones — report regressions
//! without failing a `--strict` run. Scenarios present on only one side
//! are reported as added/removed, never as regressions — a new scenario
//! has no baseline to regress against.
//!
//! No serde: the parser below is a self-contained recursive-descent JSON
//! reader, sized for the flat documents [`crate::json::render_latency`]
//! emits but accepting any well-formed JSON (so hand-edited baselines and
//! future extra fields keep parsing).

use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Minimal JSON reader.
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are held as `f64` — every field the delta
/// tool reads is either an exact small integer or already a float.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'"' => self.string().map(Json::Str),
            b'{' => self.object(),
            b'[' => self.array(),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(&format!("unexpected character '{}'", c as char))),
        }
    }

    fn literal(&mut self, word: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs don't occur in our documents;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(self.err(&format!("bad escape '\\{}'", c as char))),
                    }
                }
                Some(_) => {
                    // Copy a whole UTF-8 scalar, not a byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Latency document model.
// ---------------------------------------------------------------------------

/// One scenario row of a parsed latency document: the scenario name plus
/// every numeric field, keyed by field name (so the model survives field
/// additions without a schema change).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioRow {
    /// The scenario name (e.g. `"soak/hashtable-zipf"`).
    pub scenario: String,
    /// Every numeric field of the row, by JSON field name.
    pub metrics: BTreeMap<String, f64>,
}

impl ScenarioRow {
    /// The named numeric field, if present.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }
}

/// A parsed `BENCH_service_latency.json` document.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyDoc {
    /// The `bench` field (e.g. `"service_latency"`).
    pub bench: String,
    /// The git revision the document was measured at.
    pub revision: String,
    /// One row per scenario, in document order.
    pub rows: Vec<ScenarioRow>,
}

impl LatencyDoc {
    /// The row for a scenario name, if present.
    pub fn row(&self, scenario: &str) -> Option<&ScenarioRow> {
        self.rows.iter().find(|r| r.scenario == scenario)
    }
}

/// Parses a latency summary document as emitted by
/// [`crate::json::render_latency`].
///
/// # Errors
///
/// A human-readable message when the text is not well-formed JSON or lacks
/// the expected top-level shape (`bench`/`revision` strings and a `results`
/// array of objects each carrying a `"scenario"` string).
pub fn parse_latency_doc(text: &str) -> Result<LatencyDoc, String> {
    let mut p = Parser::new(text);
    let doc = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing \"bench\" string")?
        .to_string();
    let revision = doc
        .get("revision")
        .and_then(Json::as_str)
        .ok_or("missing \"revision\" string")?
        .to_string();
    let results = match doc.get("results") {
        Some(Json::Arr(rows)) => rows,
        _ => return Err("missing \"results\" array".to_string()),
    };
    let mut rows = Vec::with_capacity(results.len());
    for (i, row) in results.iter().enumerate() {
        let scenario = row
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("results[{i}]: missing \"scenario\" string"))?
            .to_string();
        let mut metrics = BTreeMap::new();
        if let Json::Obj(fields) = row {
            for (k, v) in fields {
                if let Some(n) = v.as_num() {
                    metrics.insert(k.clone(), n);
                }
            }
        }
        rows.push(ScenarioRow { scenario, metrics });
    }
    Ok(LatencyDoc {
        bench,
        revision,
        rows,
    })
}

// ---------------------------------------------------------------------------
// Per-scenario thresholds.
// ---------------------------------------------------------------------------

/// Per-scenario noise thresholds, the parsed form of the committed
/// `thresholds.json`:
///
/// ```json
/// {
///   "default": 0.25,
///   "scenarios": {"soak/universal-counter-reject": 0.6},
///   "warn_only": ["soak/sharded-zipf-1m"]
/// }
/// ```
///
/// Every scenario gates at `scenarios[name]` when present, `default`
/// otherwise. Scenarios named in `warn_only` still report regressions but
/// never fail a strict run — the parking place for scenarios that are new
/// (no calibrated noise level yet) or structurally noisy.
#[derive(Clone, Debug, PartialEq)]
pub struct Thresholds {
    /// Fallback relative threshold for scenarios without an override.
    pub default: f64,
    /// Per-scenario overrides, by scenario name.
    pub overrides: BTreeMap<String, f64>,
    /// Scenarios whose regressions warn but never gate.
    pub warn_only: Vec<String>,
}

impl Thresholds {
    /// A single threshold for every scenario, nothing warn-only — the
    /// shape the bare `--threshold` flag produces.
    pub fn uniform(threshold: f64) -> Thresholds {
        Thresholds {
            default: threshold,
            overrides: BTreeMap::new(),
            warn_only: Vec::new(),
        }
    }

    /// The threshold gating `scenario`.
    pub fn for_scenario(&self, scenario: &str) -> f64 {
        self.overrides
            .get(scenario)
            .copied()
            .unwrap_or(self.default)
    }

    /// Whether `scenario`'s regressions are warn-only.
    pub fn is_warn_only(&self, scenario: &str) -> bool {
        self.warn_only.iter().any(|s| s == scenario)
    }
}

/// Parses a `thresholds.json` document (see [`Thresholds`]). All three
/// fields are optional; `default` defaults to `0.25`.
///
/// # Errors
///
/// A human-readable message when the text is not well-formed JSON, the
/// top level is not an object, or a field has the wrong shape.
pub fn parse_thresholds(text: &str) -> Result<Thresholds, String> {
    let mut p = Parser::new(text);
    let doc = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    if !matches!(doc, Json::Obj(_)) {
        return Err("thresholds document must be an object".to_string());
    }
    let default = match doc.get("default") {
        None => 0.25,
        Some(v) => v.as_num().ok_or("\"default\" must be a number")?,
    };
    let mut overrides = BTreeMap::new();
    match doc.get("scenarios") {
        None => {}
        Some(Json::Obj(fields)) => {
            for (name, v) in fields {
                let t = v
                    .as_num()
                    .ok_or_else(|| format!("scenarios[\"{name}\"] must be a number"))?;
                overrides.insert(name.clone(), t);
            }
        }
        Some(_) => return Err("\"scenarios\" must be an object".to_string()),
    }
    let mut warn_only = Vec::new();
    match doc.get("warn_only") {
        None => {}
        Some(Json::Arr(items)) => {
            for (i, v) in items.iter().enumerate() {
                warn_only.push(
                    v.as_str()
                        .ok_or_else(|| format!("warn_only[{i}] must be a string"))?
                        .to_string(),
                );
            }
        }
        Some(_) => return Err("\"warn_only\" must be an array".to_string()),
    }
    for t in overrides.values().copied().chain([default]) {
        if !(t >= 0.0 && t.is_finite()) {
            return Err("thresholds must be finite non-negative fractions".to_string());
        }
    }
    Ok(Thresholds {
        default,
        overrides,
        warn_only,
    })
}

// ---------------------------------------------------------------------------
// Delta computation.
// ---------------------------------------------------------------------------

/// Which direction of change counts against the new revision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Worse {
    /// Larger is worse (latency quantiles).
    Higher,
    /// Smaller is worse (throughput).
    Lower,
}

/// The metrics the gate compares, with their worse-direction. Latency
/// medians and tails regress upward; throughput regresses downward.
pub const GATED_METRICS: [(&str, Worse); 3] = [
    ("p50_ns", Worse::Higher),
    ("p99_ns", Worse::Higher),
    ("ops_per_sec", Worse::Lower),
];

/// One metric's movement between the two revisions.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDelta {
    /// Field name (one of [`GATED_METRICS`]).
    pub metric: &'static str,
    /// Baseline value.
    pub base: f64,
    /// New value.
    pub new: f64,
    /// Signed relative change `(new - base) / base`; 0 when the baseline
    /// is 0 and the new value is too, `inf`-clamped otherwise.
    pub rel: f64,
    /// Whether the change moves in the worse direction by more than the
    /// report's threshold.
    pub regressed: bool,
}

/// One scenario's comparison across the gated metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioDelta {
    /// The scenario name.
    pub scenario: String,
    /// The relative threshold this scenario's metrics were gated at.
    pub threshold: f64,
    /// Whether this scenario's regressions warn without gating a strict
    /// run ([`Thresholds::warn_only`]).
    pub warn_only: bool,
    /// Per-metric movement, in [`GATED_METRICS`] order (metrics absent
    /// from either side are skipped, tolerating older baselines).
    pub metrics: Vec<MetricDelta>,
}

/// The full cross-revision comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaReport {
    /// Baseline revision key.
    pub base_revision: String,
    /// New revision key.
    pub new_revision: String,
    /// The default relative noise threshold a worse-direction move must
    /// exceed to count as a regression (e.g. `0.25` = 25%); individual
    /// scenarios may carry overrides (see [`ScenarioDelta::threshold`]).
    pub threshold: f64,
    /// Scenarios present in both documents, in the new document's order.
    pub scenarios: Vec<ScenarioDelta>,
    /// Scenarios only in the new document (no baseline — informational).
    pub added: Vec<String>,
    /// Scenarios only in the baseline (dropped — informational).
    pub removed: Vec<String>,
}

impl DeltaReport {
    /// Every metric delta that crossed the threshold in the worse
    /// direction, as `(scenario, delta)` pairs.
    pub fn regressions(&self) -> Vec<(&str, &MetricDelta)> {
        self.scenarios
            .iter()
            .flat_map(|s| {
                s.metrics
                    .iter()
                    .filter(|m| m.regressed)
                    .map(move |m| (s.scenario.as_str(), m))
            })
            .collect()
    }

    /// Whether any gated metric regressed beyond the threshold.
    pub fn has_regressions(&self) -> bool {
        self.scenarios
            .iter()
            .any(|s| s.metrics.iter().any(|m| m.regressed))
    }

    /// The regressions that gate a strict run:
    /// [`regressions`](Self::regressions) minus the warn-only scenarios.
    pub fn gating_regressions(&self) -> Vec<(&str, &MetricDelta)> {
        self.scenarios
            .iter()
            .filter(|s| !s.warn_only)
            .flat_map(|s| {
                s.metrics
                    .iter()
                    .filter(|m| m.regressed)
                    .map(move |m| (s.scenario.as_str(), m))
            })
            .collect()
    }

    /// Whether a regression outside the warn-only set exists — the
    /// `--strict` failure condition.
    pub fn has_gating_regressions(&self) -> bool {
        self.scenarios
            .iter()
            .any(|s| !s.warn_only && s.metrics.iter().any(|m| m.regressed))
    }
}

fn signed_rel(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - base) / base
    }
}

/// Compares a freshly measured latency document against a baseline with a
/// single uniform threshold; see [`delta_with`] for the per-scenario form.
pub fn delta(base: &LatencyDoc, new: &LatencyDoc, threshold: f64) -> DeltaReport {
    delta_with(base, new, &Thresholds::uniform(threshold))
}

/// Compares a freshly measured latency document against a baseline.
///
/// For each scenario present in both documents, each of [`GATED_METRICS`]
/// is compared; a move in the metric's worse direction whose magnitude
/// exceeds the scenario's threshold ([`Thresholds::for_scenario`],
/// relative to the baseline) is flagged as a regression. Moves in the
/// better direction, and moves within the noise threshold, never flag.
/// Scenarios in the warn-only set still flag, but are excluded from
/// [`DeltaReport::gating_regressions`].
pub fn delta_with(base: &LatencyDoc, new: &LatencyDoc, thresholds: &Thresholds) -> DeltaReport {
    let mut scenarios = Vec::new();
    let mut added = Vec::new();
    for row in &new.rows {
        let Some(base_row) = base.row(&row.scenario) else {
            added.push(row.scenario.clone());
            continue;
        };
        let threshold = thresholds.for_scenario(&row.scenario);
        let mut metrics = Vec::new();
        for (name, worse) in GATED_METRICS {
            let (Some(b), Some(n)) = (base_row.metric(name), row.metric(name)) else {
                continue;
            };
            let rel = signed_rel(b, n);
            let worse_move = match worse {
                Worse::Higher => rel,
                Worse::Lower => -rel,
            };
            metrics.push(MetricDelta {
                metric: name,
                base: b,
                new: n,
                rel,
                regressed: worse_move > threshold,
            });
        }
        scenarios.push(ScenarioDelta {
            scenario: row.scenario.clone(),
            threshold,
            warn_only: thresholds.is_warn_only(&row.scenario),
            metrics,
        });
    }
    let removed = base
        .rows
        .iter()
        .filter(|r| new.row(&r.scenario).is_none())
        .map(|r| r.scenario.clone())
        .collect();
    DeltaReport {
        base_revision: base.revision.clone(),
        new_revision: new.revision.clone(),
        threshold: thresholds.default,
        scenarios,
        added,
        removed,
    }
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

fn fmt_value(v: f64) -> String {
    format!("{v:.0}")
}

fn fmt_rel(rel: f64) -> String {
    if rel.is_infinite() {
        "+inf".to_string()
    } else {
        format!("{:+.1}%", rel * 100.0)
    }
}

/// Renders the report as a fixed-width text table: one line per
/// scenario-metric pair, regressions marked `REGRESSED`, improvements and
/// in-noise moves marked `ok`, plus added/removed scenario notes and a
/// one-line verdict footer.
pub fn render_table(report: &DeltaReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "service latency delta: {} -> {} (noise threshold {:.0}%)",
        report.base_revision,
        report.new_revision,
        report.threshold * 100.0
    );
    let _ = writeln!(
        out,
        "{:<34} {:<14} {:>14} {:>14} {:>9}  verdict",
        "scenario", "metric", "base", "new", "delta"
    );
    let width = 34 + 1 + 14 + 1 + 14 + 1 + 14 + 1 + 9 + 2 + 9;
    let _ = writeln!(out, "{}", "-".repeat(width));
    for s in &report.scenarios {
        for m in &s.metrics {
            let _ = writeln!(
                out,
                "{:<34} {:<14} {:>14} {:>14} {:>9}  {}",
                s.scenario,
                m.metric,
                fmt_value(m.base),
                fmt_value(m.new),
                fmt_rel(m.rel),
                match (m.regressed, s.warn_only) {
                    (true, true) => "REGRESSED (warn-only)",
                    (true, false) => "REGRESSED",
                    (false, _) => "ok",
                }
            );
        }
    }
    for name in &report.added {
        let _ = writeln!(out, "{name:<34} (added: no baseline to compare)");
    }
    for name in &report.removed {
        let _ = writeln!(out, "{name:<34} (removed: present only in baseline)");
    }
    let regs = report.regressions();
    if regs.is_empty() {
        let _ = writeln!(out, "verdict: no regressions beyond the noise threshold");
    } else {
        let gating = report.gating_regressions().len();
        let _ = writeln!(
            out,
            "verdict: {} metric(s) regressed beyond the noise threshold \
             ({gating} gating, {} warn-only)",
            regs.len(),
            regs.len() - gating
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::json::{render_latency, LatencyRecord};
    use std::time::Duration;

    fn sample_record(scenario: &str, scale: u64) -> LatencyRecord {
        let mut h = Histogram::new();
        for v in [100, 200, 400, 900, 5_000] {
            h.record(v * scale);
        }
        LatencyRecord {
            scenario: scenario.to_string(),
            ops: 5_000,
            rejected: 0,
            audits: 3,
            online_probes: 12,
            online_probes_passed: 12,
            elapsed: Duration::from_millis(20 * scale as u32 as u64),
            audit_pause: Duration::from_millis(2),
            resizes: scale,
            resize_pause: Duration::from_micros(100 * scale),
            latency: h.summary(),
            queue_wait: h.summary(),
            service: h.summary(),
        }
    }

    #[test]
    fn roundtrip_parses_rendered_document() {
        let doc_text = render_latency(
            "service_latency",
            &[sample_record("soak/a", 1), sample_record("soak/b", 2)],
        );
        let doc = parse_latency_doc(&doc_text).unwrap();
        assert_eq!(doc.bench, "service_latency");
        assert!(!doc.revision.is_empty());
        assert_eq!(doc.rows.len(), 2);
        let a = doc.row("soak/a").unwrap();
        for field in [
            "ops",
            "p50_ns",
            "p99_ns",
            "ops_per_sec",
            "ops_per_sec_load",
            "queue_wait_p99_ns",
            "service_p99_ns",
            "online_probes",
            "audit_pause_ns",
        ] {
            assert!(a.metric(field).is_some(), "missing {field}");
        }
        assert!((a.metric("ops").unwrap() - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn self_delta_has_no_regressions() {
        let text = render_latency("service_latency", &[sample_record("soak/a", 1)]);
        let doc = parse_latency_doc(&text).unwrap();
        let report = delta(&doc, &doc, 0.25);
        assert!(!report.has_regressions());
        assert!(report.added.is_empty() && report.removed.is_empty());
        assert_eq!(report.scenarios.len(), 1);
        assert_eq!(report.scenarios[0].metrics.len(), GATED_METRICS.len());
        assert!(report.scenarios[0].metrics.iter().all(|m| m.rel == 0.0));
    }

    #[test]
    fn latency_increase_beyond_threshold_regresses() {
        let base = parse_latency_doc(&render_latency(
            "service_latency",
            &[sample_record("soak/a", 1)],
        ))
        .unwrap();
        let new = parse_latency_doc(&render_latency(
            "service_latency",
            &[sample_record("soak/a", 4)],
        ))
        .unwrap();
        let report = delta(&base, &new, 0.25);
        let regs = report.regressions();
        assert!(
            regs.iter()
                .any(|(s, m)| *s == "soak/a" && m.metric == "p99_ns"),
            "4x latency must flag p99: {regs:?}"
        );
        // The reverse direction is an improvement, never a regression on
        // the latency metrics — but 4x slower elapsed means throughput
        // regressed in `report`, and throughput *improved* here.
        let back = delta(&new, &base, 0.25);
        assert!(back
            .regressions()
            .iter()
            .all(|(_, m)| m.metric != "p50_ns" && m.metric != "p99_ns"));
    }

    #[test]
    fn throughput_drop_regresses_and_rise_does_not() {
        let mk = |ops_ns: u64| {
            parse_latency_doc(&render_latency(
                "service_latency",
                &[{
                    let mut r = sample_record("soak/a", 1);
                    r.elapsed = Duration::from_nanos(ops_ns);
                    r
                }],
            ))
            .unwrap()
        };
        let fast = mk(10_000_000);
        let slow = mk(40_000_000);
        let report = delta(&fast, &slow, 0.25);
        assert!(report
            .regressions()
            .iter()
            .any(|(_, m)| m.metric == "ops_per_sec"));
        let report = delta(&slow, &fast, 0.25);
        assert!(report
            .regressions()
            .iter()
            .all(|(_, m)| m.metric != "ops_per_sec"));
    }

    #[test]
    fn within_noise_moves_do_not_flag() {
        let base = parse_latency_doc(&render_latency(
            "service_latency",
            &[sample_record("soak/a", 10)],
        ))
        .unwrap();
        let mut new = base.clone();
        for m in new.rows[0].metrics.values_mut() {
            *m *= 1.05; // 5% across the board, threshold 25%
        }
        assert!(!delta(&base, &new, 0.25).has_regressions());
    }

    #[test]
    fn added_and_removed_scenarios_are_informational() {
        let base = parse_latency_doc(&render_latency(
            "service_latency",
            &[sample_record("soak/old", 1)],
        ))
        .unwrap();
        let new = parse_latency_doc(&render_latency(
            "service_latency",
            &[sample_record("soak/new", 1)],
        ))
        .unwrap();
        let report = delta(&base, &new, 0.25);
        assert_eq!(report.added, vec!["soak/new"]);
        assert_eq!(report.removed, vec!["soak/old"]);
        assert!(!report.has_regressions());
        let table = render_table(&report);
        assert!(table.contains("added"), "{table}");
        assert!(table.contains("removed"), "{table}");
    }

    #[test]
    fn render_table_marks_regressions() {
        let base = parse_latency_doc(&render_latency(
            "service_latency",
            &[sample_record("soak/a", 1)],
        ))
        .unwrap();
        let new = parse_latency_doc(&render_latency(
            "service_latency",
            &[sample_record("soak/a", 4)],
        ))
        .unwrap();
        let table = render_table(&delta(&base, &new, 0.25));
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("soak/a"), "{table}");
        assert!(table.contains("p99_ns"), "{table}");
        assert!(table.contains("verdict:"), "{table}");
    }

    #[test]
    fn per_scenario_thresholds_gate_independently() {
        let base = parse_latency_doc(&render_latency(
            "service_latency",
            &[sample_record("soak/a", 1), sample_record("soak/b", 1)],
        ))
        .unwrap();
        let new = parse_latency_doc(&render_latency(
            "service_latency",
            &[sample_record("soak/a", 2), sample_record("soak/b", 2)],
        ))
        .unwrap();
        // 2x latency: flags at the 25% default, absorbed by a 3x override.
        let mut thresholds = Thresholds::uniform(0.25);
        thresholds.overrides.insert("soak/b".to_string(), 2.0);
        let report = delta_with(&base, &new, &thresholds);
        let regs = report.regressions();
        assert!(regs.iter().any(|(s, _)| *s == "soak/a"));
        assert!(
            regs.iter()
                .all(|(s, m)| *s != "soak/b" || m.metric == "ops_per_sec"),
            "3x latency headroom must absorb soak/b's 2x: {regs:?}"
        );
        assert_eq!(report.scenarios[0].threshold, 0.25);
        assert_eq!(report.scenarios[1].threshold, 2.0);
    }

    #[test]
    fn warn_only_scenarios_report_but_do_not_gate() {
        let base = parse_latency_doc(&render_latency(
            "service_latency",
            &[sample_record("soak/a", 1), sample_record("soak/b", 1)],
        ))
        .unwrap();
        let new = parse_latency_doc(&render_latency(
            "service_latency",
            &[sample_record("soak/a", 1), sample_record("soak/b", 4)],
        ))
        .unwrap();
        let mut thresholds = Thresholds::uniform(0.25);
        thresholds.warn_only.push("soak/b".to_string());
        let report = delta_with(&base, &new, &thresholds);
        assert!(report.has_regressions(), "warn-only still reports");
        assert!(!report.has_gating_regressions(), "but never gates");
        assert!(report.gating_regressions().is_empty());
        let table = render_table(&report);
        assert!(table.contains("REGRESSED (warn-only)"), "{table}");
        assert!(table.contains("0 gating"), "{table}");
    }

    #[test]
    fn thresholds_parse_and_reject() {
        let t = parse_thresholds(
            "{\"default\": 0.3, \
             \"scenarios\": {\"soak/a\": 0.5}, \
             \"warn_only\": [\"soak/new\"]}",
        )
        .unwrap();
        assert_eq!(t.for_scenario("soak/a"), 0.5);
        assert_eq!(t.for_scenario("soak/other"), 0.3);
        assert!(t.is_warn_only("soak/new"));
        assert!(!t.is_warn_only("soak/a"));
        // Empty object: all defaults.
        assert_eq!(parse_thresholds("{}").unwrap(), Thresholds::uniform(0.25));
        assert!(parse_thresholds("[]").is_err());
        assert!(parse_thresholds("{\"default\": \"x\"}").is_err());
        assert!(parse_thresholds("{\"scenarios\": [1]}").is_err());
        assert!(parse_thresholds("{\"warn_only\": [1]}").is_err());
        assert!(parse_thresholds("{\"default\": -0.5}").is_err());
        assert!(parse_thresholds("{} extra").is_err());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_latency_doc("").is_err());
        assert!(parse_latency_doc("{\"bench\": \"x\"}").is_err());
        assert!(parse_latency_doc("{\"bench\": 3, \"revision\": \"r\", \"results\": []}").is_err());
        assert!(parse_latency_doc("[1, 2").is_err());
        assert!(parse_latency_doc("{} trailing").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = parse_latency_doc(
            "{\"bench\": \"a\\\"b\", \"revision\": \"r\\u0041\", \
             \"results\": [{\"scenario\": \"s\", \"x\": 1.5e3, \"nested\": {\"y\": [1, null, true]}}]}",
        )
        .unwrap();
        assert_eq!(doc.bench, "a\"b");
        assert_eq!(doc.revision, "rA");
        assert_eq!(doc.rows[0].metric("x"), Some(1500.0));
        assert_eq!(doc.rows[0].metric("nested"), None, "non-numeric skipped");
    }
}
