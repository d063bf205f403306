//! The ratchet baseline: known findings may be suppressed with a
//! justification, but per-`(rule, file)` counts can only go down. CI
//! fails on any finding not covered by the baseline; a shrinking count
//! is reported so the baseline can be tightened (and `--write-baseline`
//! regenerates it, preserving justifications).
//!
//! Counts rather than line numbers keep the baseline stable under
//! unrelated edits: a suppressed finding may drift lines freely, but a
//! *new* finding in the same file trips the ratchet.

use crate::rules::Finding;
use simjson::Json;
use std::collections::BTreeMap;

/// One baseline entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// Number of findings of this rule tolerated in this file.
    pub count: u64,
    /// Why they are tolerated (required; "unreviewed" placeholders are
    /// for freshly written baselines awaiting triage).
    pub justification: String,
}

/// A parsed baseline.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    /// Entries, sorted by (rule, file).
    pub entries: Vec<Entry>,
}

/// Outcome of comparing findings against a baseline.
#[derive(Debug)]
pub struct RatchetResult {
    /// Findings beyond the baselined count, i.e. CI failures.
    pub new: Vec<Finding>,
    /// `(rule, file, baseline, current)` where current < baseline: the
    /// baseline can ratchet down.
    pub improved: Vec<(String, String, u64, u64)>,
    /// Baseline entries whose (rule, file) produced no findings at all.
    pub stale: Vec<(String, String)>,
    /// Number of findings absorbed by the baseline.
    pub suppressed: usize,
}

impl Baseline {
    /// Parses a baseline JSON document.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("baseline missing schema")?;
        if schema != "simlint-baseline-v1" {
            return Err(format!("unknown baseline schema {schema:?}"));
        }
        let mut entries = Vec::new();
        for e in doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("baseline missing entries")?
        {
            entries.push(Entry {
                rule: e
                    .get("rule")
                    .and_then(Json::as_str)
                    .ok_or("entry missing rule")?
                    .to_owned(),
                file: e
                    .get("file")
                    .and_then(Json::as_str)
                    .ok_or("entry missing file")?
                    .to_owned(),
                count: e
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or("entry missing count")?,
                justification: e
                    .get("justification")
                    .and_then(Json::as_str)
                    .ok_or("entry missing justification")?
                    .to_owned(),
            });
        }
        entries.sort_by(|a, b| (&a.rule, &a.file).cmp(&(&b.rule, &b.file)));
        Ok(Baseline { entries })
    }

    /// Renders the baseline as deterministic JSON.
    pub fn to_json(&self) -> String {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("count".into(), Json::UInt(e.count)),
                    ("file".into(), Json::Str(e.file.clone())),
                    ("justification".into(), Json::Str(e.justification.clone())),
                    ("rule".into(), Json::Str(e.rule.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("entries".into(), Json::Arr(entries)),
            ("schema".into(), Json::Str("simlint-baseline-v1".into())),
        ])
        .render()
    }

    /// Builds a baseline covering exactly `findings`, carrying over
    /// justifications from `prior` where (rule, file) matches.
    pub fn covering(findings: &[Finding], prior: &Baseline) -> Baseline {
        let mut counts: BTreeMap<(String, String), u64> = BTreeMap::new();
        for f in findings {
            *counts
                .entry((f.rule.to_owned(), f.file.clone()))
                .or_insert(0) += 1;
        }
        let entries = counts
            .into_iter()
            .map(|((rule, file), count)| {
                let justification = prior
                    .entries
                    .iter()
                    .find(|e| e.rule == rule && e.file == file)
                    .map(|e| e.justification.clone())
                    .unwrap_or_else(|| "unreviewed".to_owned());
                Entry {
                    rule,
                    file,
                    count,
                    justification,
                }
            })
            .collect();
        Baseline { entries }
    }

    /// Compares `findings` against the baseline (the ratchet).
    pub fn ratchet(&self, findings: &[Finding]) -> RatchetResult {
        let mut by_key: BTreeMap<(String, String), Vec<&Finding>> = BTreeMap::new();
        for f in findings {
            by_key
                .entry((f.rule.to_owned(), f.file.clone()))
                .or_default()
                .push(f);
        }
        let allowed = |rule: &str, file: &str| -> u64 {
            self.entries
                .iter()
                .find(|e| e.rule == rule && e.file == file)
                .map_or(0, |e| e.count)
        };
        let mut new = Vec::new();
        let mut improved = Vec::new();
        let mut suppressed = 0usize;
        for ((rule, file), fs) in &by_key {
            let cap = allowed(rule, file) as usize;
            let n = fs.len();
            if n > cap {
                // All findings in the group are reported (the baseline has
                // no line identity, so "which ones are new" is undefined).
                new.extend(fs.iter().map(|f| (*f).clone()));
            } else {
                suppressed += n;
                if n < cap {
                    improved.push((rule.clone(), file.clone(), cap as u64, n as u64));
                }
            }
        }
        let stale = self
            .entries
            .iter()
            .filter(|e| !by_key.contains_key(&(e.rule.clone(), e.file.clone())))
            .map(|e| (e.rule.clone(), e.file.clone()))
            .collect();
        new.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.msg).cmp(&(&b.file, b.line, b.rule, &b.msg))
        });
        RatchetResult {
            new,
            improved,
            stale,
            suppressed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_owned(),
            line,
            msg: "m".into(),
            chain: None,
        }
    }

    #[test]
    fn baseline_roundtrips() {
        let b = Baseline {
            entries: vec![Entry {
                rule: "hot-alloc".into(),
                file: "a.rs".into(),
                count: 2,
                justification: "cold sampling tick".into(),
            }],
        };
        let text = b.to_json();
        let back = Baseline::from_json(&text).unwrap();
        assert_eq!(back.entries, b.entries);
    }

    #[test]
    fn ratchet_allows_within_count_and_fails_beyond() {
        let b = Baseline {
            entries: vec![Entry {
                rule: "hot-alloc".into(),
                file: "a.rs".into(),
                count: 1,
                justification: "j".into(),
            }],
        };
        let ok = b.ratchet(&[finding("hot-alloc", "a.rs", 3)]);
        assert!(ok.new.is_empty());
        assert_eq!(ok.suppressed, 1);

        let grown = b.ratchet(&[
            finding("hot-alloc", "a.rs", 3),
            finding("hot-alloc", "a.rs", 9),
        ]);
        assert_eq!(grown.new.len(), 2, "count regression reports the group");

        let other_file = b.ratchet(&[finding("hot-alloc", "b.rs", 1)]);
        assert_eq!(other_file.new.len(), 1, "unknown (rule,file) is new");
    }

    #[test]
    fn ratchet_reports_improvement_and_staleness() {
        let b = Baseline {
            entries: vec![
                Entry {
                    rule: "r".into(),
                    file: "a.rs".into(),
                    count: 3,
                    justification: "j".into(),
                },
                Entry {
                    rule: "r".into(),
                    file: "gone.rs".into(),
                    count: 1,
                    justification: "j".into(),
                },
            ],
        };
        let res = b.ratchet(&[finding("r", "a.rs", 1)]);
        assert_eq!(res.improved, vec![("r".into(), "a.rs".into(), 3, 1)]);
        assert_eq!(res.stale, vec![("r".into(), "gone.rs".into())]);
    }

    #[test]
    fn covering_preserves_justifications() {
        let prior = Baseline {
            entries: vec![Entry {
                rule: "r".into(),
                file: "a.rs".into(),
                count: 9,
                justification: "carefully reviewed".into(),
            }],
        };
        let b = Baseline::covering(&[finding("r", "a.rs", 1), finding("x", "b.rs", 2)], &prior);
        assert_eq!(b.entries[0].count, 1);
        assert_eq!(b.entries[0].justification, "carefully reviewed");
        assert_eq!(b.entries[1].justification, "unreviewed");
    }
}
