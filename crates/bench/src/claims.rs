//! The machine-checked claims gate: parse `claims.toml`, evaluate each
//! claim against the attribution reports, and render PASS/FAIL lines.
//!
//! The paper's qualitative conclusions ("single-drive physical dump is
//! tape-limited", "logical backup stops scaling past a few drives
//! because the bottleneck moves off the tapes") are encoded as data so
//! CI can re-check them after every change to the engines or the
//! calibration. `bench explain <table> --check claims.toml` exits
//! non-zero when any claim fails — the qualitative sibling of the
//! quantitative `benchdiff` gate.
//!
//! The file is the same hand-rolled TOML dialect as `faults.toml` and
//! `simlint.toml`: `[[claim]]` array-of-table headers followed by
//! `key = value` lines.
//!
//! ```toml
//! [[claim]]
//! table = "table2"             # table2..table5, or "sweep"
//! op = "Physical Dump"         # operation label inside that table
//! kind = "binding_share_min"   # see ClaimKind
//! resource = "tape*"           # binding-class pattern (obs::attrib)
//! value = 0.9                  # threshold for the share kinds
//! note = "§5.2: the dump streams the tape"
//!
//! [[claim]]
//! table = "sweep"              # any sweep report: "sweep", "net_sweep"
//! op = "Logical Backup"
//! kind = "crossover"           # dominant binding flips along the sweep
//! from = "tape*"
//! to = "cpu|disk"
//! by = 6                       # flip must happen at param <= 6
//! note = "§5.3: logical parallelism saturates"
//! ```
//!
//! A claim against a table that was not evaluated **fails** — the gate
//! must not silently pass because a runner stopped producing a report.

use std::collections::BTreeMap;

use obs::attrib::class_matches;
use obs::AttribReport;
use obs::SweepReport;

/// One qualitative claim from `claims.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Which report the claim is about ("table2".."table5", "table_net",
    /// or a sweep name like "sweep" / "net_sweep").
    pub table: String,
    /// Operation label inside the report ("Physical Dump").
    pub op: String,
    /// The check to run.
    pub kind: ClaimKind,
    /// Free-text provenance (paper section), echoed in the output.
    pub note: String,
}

/// The check a [`Claim`] encodes.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimKind {
    /// The op's critical-path share of `resource` is at least `min`.
    BindingShareMin {
        /// Binding-class pattern (`"tape*"`, `"cpu|disk"`).
        resource: String,
        /// Inclusive lower bound on the share.
        min: f64,
    },
    /// The op's critical-path share of `resource` is at most `max`.
    BindingShareMax {
        /// Binding-class pattern.
        resource: String,
        /// Inclusive upper bound on the share.
        max: f64,
    },
    /// The op's dominant binding class matches `resource`.
    Dominant {
        /// Binding-class pattern.
        resource: String,
    },
    /// Somewhere along the sweep the op's dominant binding flips from a
    /// class matching `from` to one matching `to` (only meaningful
    /// against a sweep report — a `table` name ending in "sweep").
    Crossover {
        /// Pattern for the old dominant class.
        from: String,
        /// Pattern for the new dominant class.
        to: String,
        /// If set, the flip must complete at a parameter value <= this.
        by: Option<f64>,
    },
}

impl Claim {
    /// One-line human rendering of what the claim asserts.
    pub fn describe(&self) -> String {
        let what = match &self.kind {
            ClaimKind::BindingShareMin { resource, min } => {
                format!("{resource} binding share >= {min}")
            }
            ClaimKind::BindingShareMax { resource, max } => {
                format!("{resource} binding share <= {max}")
            }
            ClaimKind::Dominant { resource } => format!("dominant binding is {resource}"),
            ClaimKind::Crossover { from, to, by } => match by {
                Some(by) => format!("dominant flips {from} -> {to} by param {by}"),
                None => format!("dominant flips {from} -> {to}"),
            },
        };
        format!("{} / {}: {what}", self.table, self.op)
    }
}

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClaimsError {
    /// A line (or a finished `[[claim]]` entry) failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for ClaimsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClaimsError::Parse { line, reason } => write!(f, "claims line {line}: {reason}"),
        }
    }
}

impl std::error::Error for ClaimsError {}

/// Strips a `#` comment, ignoring `#` inside double quotes.
fn strip_comment(raw: &str) -> &str {
    let mut in_quote = false;
    for (i, c) in raw.char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            '#' if !in_quote => return &raw[..i],
            _ => {}
        }
    }
    raw
}

/// One `[[claim]]` entry mid-parse: its raw key/value pairs plus the
/// header's line number for error reporting.
struct RawClaim {
    line: usize,
    fields: BTreeMap<String, String>,
}

impl RawClaim {
    fn take(&mut self, key: &str) -> Option<String> {
        self.fields.remove(key)
    }

    fn require(&mut self, key: &str) -> Result<String, ClaimsError> {
        self.take(key).ok_or_else(|| ClaimsError::Parse {
            line: self.line,
            reason: format!("claim is missing `{key}`"),
        })
    }

    fn number(&mut self, key: &str) -> Result<f64, ClaimsError> {
        let v = self.require(key)?;
        v.parse::<f64>().map_err(|_| ClaimsError::Parse {
            line: self.line,
            reason: format!("bad number for `{key}`: {v}"),
        })
    }

    fn build(mut self) -> Result<Claim, ClaimsError> {
        let table = self.require("table")?;
        let op = self.require("op")?;
        let kind_name = self.require("kind")?;
        let kind = match kind_name.as_str() {
            "binding_share_min" => ClaimKind::BindingShareMin {
                resource: self.require("resource")?,
                min: self.number("value")?,
            },
            "binding_share_max" => ClaimKind::BindingShareMax {
                resource: self.require("resource")?,
                max: self.number("value")?,
            },
            "dominant" => ClaimKind::Dominant {
                resource: self.require("resource")?,
            },
            "crossover" => ClaimKind::Crossover {
                from: self.require("from")?,
                to: self.require("to")?,
                by: match self.take("by") {
                    Some(v) => Some(v.parse::<f64>().map_err(|_| ClaimsError::Parse {
                        line: self.line,
                        reason: format!("bad number for `by`: {v}"),
                    })?),
                    None => None,
                },
            },
            other => {
                return Err(ClaimsError::Parse {
                    line: self.line,
                    reason: format!("unknown kind {other:?}"),
                })
            }
        };
        if let ClaimKind::Crossover { .. } = kind {
            if !table.ends_with("sweep") {
                return Err(ClaimsError::Parse {
                    line: self.line,
                    reason: format!(
                        "crossover claims need a sweep table (name ending in \"sweep\"), \
                         got {table:?}"
                    ),
                });
            }
        }
        let note = self.take("note").unwrap_or_default();
        if let Some(stray) = self.fields.keys().next() {
            return Err(ClaimsError::Parse {
                line: self.line,
                reason: format!("unknown key `{stray}` for kind {kind_name:?}"),
            });
        }
        Ok(Claim {
            table,
            op,
            kind,
            note,
        })
    }
}

/// Parses a claims file (dialect in the module docs).
pub fn parse(text: &str) -> Result<Vec<Claim>, ClaimsError> {
    let mut claims = Vec::new();
    let mut cur: Option<RawClaim> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[claim]]" {
            if let Some(done) = cur.take() {
                claims.push(done.build()?);
            }
            cur = Some(RawClaim {
                line: lineno + 1,
                fields: BTreeMap::new(),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ClaimsError::Parse {
                line: lineno + 1,
                reason: "expected `key = value` or `[[claim]]`".into(),
            });
        };
        let Some(entry) = cur.as_mut() else {
            return Err(ClaimsError::Parse {
                line: lineno + 1,
                reason: "key outside a [[claim]] entry".into(),
            });
        };
        let key = key.trim().to_string();
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .unwrap_or(value)
            .to_string();
        if entry.fields.insert(key.clone(), value).is_some() {
            return Err(ClaimsError::Parse {
                line: lineno + 1,
                reason: format!("duplicate key `{key}`"),
            });
        }
    }
    if let Some(done) = cur.take() {
        claims.push(done.build()?);
    }
    Ok(claims)
}

/// Outcome of evaluating one claim.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimResult {
    /// The claim that was checked.
    pub claim: Claim,
    /// Whether it held.
    pub pass: bool,
    /// What was actually observed ("tape share 0.934").
    pub detail: String,
}

/// Evaluates claims against the reports the runner produced.
///
/// `tables` maps report names ("table2") to attribution reports;
/// `sweeps` maps sweep names ("sweep", "net_sweep") to the sweeps that
/// ran. Claims naming a missing table, sweep, or op fail — the gate
/// treats "not evaluated" as "not proven".
pub fn evaluate(
    claims: &[Claim],
    tables: &BTreeMap<String, AttribReport>,
    sweeps: &BTreeMap<String, SweepReport>,
) -> Vec<ClaimResult> {
    claims
        .iter()
        .map(|claim| {
            let (pass, detail) = check(claim, tables, sweeps);
            ClaimResult {
                claim: claim.clone(),
                pass,
                detail,
            }
        })
        .collect()
}

fn check(
    claim: &Claim,
    tables: &BTreeMap<String, AttribReport>,
    sweeps: &BTreeMap<String, SweepReport>,
) -> (bool, String) {
    if let ClaimKind::Crossover { from, to, by } = &claim.kind {
        let Some(sweep) = sweeps.get(&claim.table) else {
            return (false, format!("{} was not evaluated", claim.table));
        };
        let xs = sweep.crossovers(&claim.op);
        if !sweep.op_names().iter().any(|o| o == &claim.op) {
            return (false, format!("op {:?} not in the sweep", claim.op));
        }
        let hit = xs.iter().find(|x| {
            class_matches(from, &x.from)
                && class_matches(to, &x.to)
                && by.is_none_or(|b| x.param_hi <= b + 1e-9)
        });
        return match hit {
            Some(x) => (
                true,
                format!(
                    "{} -> {} between {}={} and {}",
                    x.from, x.to, sweep.param, x.param_lo, x.param_hi
                ),
            ),
            None if xs.is_empty() => (false, "dominant binding never flips".into()),
            None => (
                false,
                format!(
                    "flips observed: {}",
                    xs.iter()
                        .map(|x| format!("{} -> {} at {}", x.from, x.to, x.param_hi))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
        };
    }

    let Some(report) = tables.get(&claim.table) else {
        return (false, format!("{} was not evaluated", claim.table));
    };
    let Some(a) = report.op(&claim.op) else {
        return (false, format!("op {:?} not in {}", claim.op, claim.table));
    };
    match &claim.kind {
        ClaimKind::BindingShareMin { resource, min } => {
            let share = a.share_of(resource);
            (share >= *min, format!("{resource} share {share:.4}"))
        }
        ClaimKind::BindingShareMax { resource, max } => {
            let share = a.share_of(resource);
            (share <= *max, format!("{resource} share {share:.4}"))
        }
        ClaimKind::Dominant { resource } => {
            let dom = a.dominant();
            (class_matches(resource, &dom), format!("dominant is {dom}"))
        }
        ClaimKind::Crossover { .. } => unreachable!("handled above"),
    }
}

/// Renders evaluation results as aligned PASS/FAIL lines plus a summary
/// tail; the second element is the number of failures.
pub fn render(results: &[ClaimResult]) -> (String, usize) {
    let mut out = String::new();
    let mut failed = 0;
    for r in results {
        let status = if r.pass { "PASS" } else { "FAIL" };
        if !r.pass {
            failed += 1;
        }
        out.push_str(&format!("{status}  {} ({})", r.claim.describe(), r.detail));
        if !r.claim.note.is_empty() {
            out.push_str(&format!("  [{}]", r.claim.note));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "claims: {} checked, {} failed\n",
        results.len(),
        failed
    ));
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::attrib::OpAttribution;

    fn op(name: &str, classes: &[(&str, f64)]) -> OpAttribution {
        OpAttribution {
            op: name.to_string(),
            makespan: 100.0,
            shares: classes.iter().map(|(c, s)| (format!("{c}0"), *s)).collect(),
            class_shares: classes.iter().map(|(c, s)| (c.to_string(), *s)).collect(),
            streams: vec![],
        }
    }

    fn table2(classes: &[(&str, f64)]) -> BTreeMap<String, AttribReport> {
        let mut m = BTreeMap::new();
        m.insert(
            "table2".to_string(),
            AttribReport {
                experiment: "table2".to_string(),
                ops: vec![op("Physical Dump", classes)],
            },
        );
        m
    }

    #[test]
    fn parses_all_claim_kinds() {
        let text = r#"
# provenance comment
[[claim]]
table = "table2"
op = "Physical Dump"
kind = "binding_share_min"
resource = "tape*"
value = 0.9
note = "tape-limited (#5.2)"

[[claim]]
table = "table4"
op = "Logical Backup"
kind = "dominant"
resource = "cpu|disk"

[[claim]]
table = "sweep"
op = "Logical Backup"
kind = "crossover"
from = "tape*"
to = "cpu|disk|cap"
by = 4
"#;
        let claims = parse(text).expect("parses");
        assert_eq!(claims.len(), 3);
        assert_eq!(claims[0].note, "tape-limited (#5.2)");
        assert!(matches!(
            &claims[0].kind,
            ClaimKind::BindingShareMin { min, .. } if *min == 0.9
        ));
        assert!(matches!(&claims[1].kind, ClaimKind::Dominant { .. }));
        assert!(matches!(
            &claims[2].kind,
            ClaimKind::Crossover { by: Some(b), .. } if *b == 4.0
        ));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse("[[claim]]\ntable = \"table2\"\n").unwrap_err();
        assert!(matches!(err, ClaimsError::Parse { line: 1, .. }), "{err}");
        let err = parse("stray = 1\n").unwrap_err();
        assert!(matches!(err, ClaimsError::Parse { line: 1, .. }), "{err}");
        let err = parse("[[claim]]\nwhat\n").unwrap_err();
        assert!(matches!(err, ClaimsError::Parse { line: 2, .. }), "{err}");
        // Crossovers only make sense against the sweep.
        let err = parse(
            "[[claim]]\ntable = \"table2\"\nop = \"x\"\nkind = \"crossover\"\nfrom = \"a\"\nto = \"b\"\n",
        )
        .unwrap_err();
        assert!(format!("{err}").contains("sweep"), "{err}");
    }

    #[test]
    fn share_and_dominant_claims_evaluate() {
        let tables = table2(&[("tape", 0.93), ("cpu", 0.02)]);
        let claims = vec![
            Claim {
                table: "table2".into(),
                op: "Physical Dump".into(),
                kind: ClaimKind::BindingShareMin {
                    resource: "tape*".into(),
                    min: 0.9,
                },
                note: String::new(),
            },
            Claim {
                table: "table2".into(),
                op: "Physical Dump".into(),
                kind: ClaimKind::BindingShareMax {
                    resource: "cpu".into(),
                    max: 0.01,
                },
                note: String::new(),
            },
            Claim {
                table: "table2".into(),
                op: "Physical Dump".into(),
                kind: ClaimKind::Dominant {
                    resource: "tape*".into(),
                },
                note: String::new(),
            },
        ];
        let results = evaluate(&claims, &tables, &BTreeMap::new());
        assert!(results[0].pass, "{}", results[0].detail);
        assert!(!results[1].pass, "{}", results[1].detail);
        assert!(results[2].pass, "{}", results[2].detail);
        let (text, failed) = render(&results);
        assert_eq!(failed, 1);
        assert!(text.contains("PASS"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("3 checked, 1 failed"), "{text}");
    }

    #[test]
    fn missing_tables_and_ops_fail_the_gate() {
        let tables = table2(&[("tape", 0.93)]);
        let missing_table = Claim {
            table: "table5".into(),
            op: "Physical Dump".into(),
            kind: ClaimKind::Dominant {
                resource: "tape*".into(),
            },
            note: String::new(),
        };
        let missing_op = Claim {
            table: "table2".into(),
            op: "Nope".into(),
            kind: ClaimKind::Dominant {
                resource: "tape*".into(),
            },
            note: String::new(),
        };
        let results = evaluate(&[missing_table, missing_op], &tables, &BTreeMap::new());
        assert!(!results[0].pass && results[0].detail.contains("not evaluated"));
        assert!(!results[1].pass && results[1].detail.contains("not in"));
    }

    #[test]
    fn crossover_claims_check_the_sweep() {
        let sweep = SweepReport {
            experiment: "sweep".into(),
            param: "drives".into(),
            points: vec![
                obs::attrib::SweepPoint {
                    param: 1.0,
                    ops: vec![op("Logical Backup", &[("tape", 0.9)])],
                },
                obs::attrib::SweepPoint {
                    param: 2.0,
                    ops: vec![op("Logical Backup", &[("tape", 0.6), ("cpu", 0.3)])],
                },
                obs::attrib::SweepPoint {
                    param: 4.0,
                    ops: vec![op("Logical Backup", &[("cpu", 0.8)])],
                },
            ],
        };
        let base = Claim {
            table: "sweep".into(),
            op: "Logical Backup".into(),
            kind: ClaimKind::Crossover {
                from: "tape*".into(),
                to: "cpu|disk".into(),
                by: None,
            },
            note: String::new(),
        };
        let mut sweeps = BTreeMap::new();
        sweeps.insert("sweep".to_string(), sweep);
        let results = evaluate(std::slice::from_ref(&base), &BTreeMap::new(), &sweeps);
        assert!(results[0].pass, "{}", results[0].detail);

        // Tightening `by` below the flip point fails it.
        let mut early = base.clone();
        early.kind = ClaimKind::Crossover {
            from: "tape*".into(),
            to: "cpu|disk".into(),
            by: Some(2.0),
        };
        let results = evaluate(&[early], &BTreeMap::new(), &sweeps);
        assert!(!results[0].pass, "{}", results[0].detail);

        // A claim against a sweep that never ran fails closed.
        let mut other = base.clone();
        other.table = "net_sweep".into();
        let results = evaluate(&[other], &BTreeMap::new(), &sweeps);
        assert!(!results[0].pass && results[0].detail.contains("not evaluated"));

        // No sweeps at all: same.
        let results = evaluate(&[base], &BTreeMap::new(), &BTreeMap::new());
        assert!(!results[0].pass && results[0].detail.contains("not evaluated"));
    }
}
