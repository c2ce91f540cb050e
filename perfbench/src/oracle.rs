//! Correctness oracle. Findings in an `analyze --json` document are
//! graded against the corpus generator's manifest, which does not come
//! from the analyzer, with `ofence_corpus::evaluate`.

use ofence_corpus::{evaluate, BugKind, FoundBug, FoundPairing, Manifest};
use serde_json::Value;

/// The verdict on one document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Grade {
    pub pass: bool,
    pub bugs_injected: usize,
    pub bugs_found: usize,
    pub unexplained_pairings: usize,
    /// §6.4 counts, reported and never failed on.
    pub decoy_pairings: usize,
    pub decoy_false_positives: usize,
    pub why: String,
}

pub fn parse(bytes: &[u8]) -> Result<Value, String> {
    serde_json::from_slice(bytes).map_err(|e| format!("report is not JSON: {e}"))
}

fn bug_kind(kind: &Value) -> Option<BugKind> {
    let tag = match kind {
        Value::String(s) => s.as_str(),
        Value::Object(m) => m.iter().next()?.0.as_str(),
        _ => return None,
    };
    Some(match tag {
        "Misplaced" => BugKind::Misplaced,
        "RepeatedRead" => BugKind::RepeatedRead,
        "WrongBarrierType" => BugKind::WrongBarrierType,
        "UnneededBarrier" => BugKind::UnneededBarrier,
        "MissingBarrier" => BugKind::MissingBarrier,
        _ => return None,
    })
}

fn str_at<'a>(v: &'a Value, path: &[&str]) -> &'a str {
    let mut cur = v;
    for k in path {
        match cur.get(k) {
            Some(next) => cur = next,
            None => return "",
        }
    }
    cur.as_str().unwrap_or("")
}

/// Reduce a report to the comparable facts the corpus crate grades.
pub fn found_records(doc: &Value) -> Result<(Vec<FoundBug>, Vec<FoundPairing>), String> {
    let arr = |k: &str| {
        doc.get(k)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("report has no `{k}` array"))
    };
    let bugs = arr("deviations")?
        .iter()
        .filter_map(|d| {
            Some(FoundBug {
                kind: bug_kind(d.get("kind")?)?,
                function: str_at(d, &["site", "function"]).to_string(),
                strukt: str_at(d, &["object", "strukt"]).to_string(),
                field: str_at(d, &["object", "field"]).to_string(),
            })
        })
        .collect();
    let mut function_of = std::collections::HashMap::new();
    for s in arr("sites")? {
        if let Some(id) = s.get("id").and_then(Value::as_u64) {
            function_of.insert(id, str_at(s, &["site", "function"]).to_string());
        }
    }
    let mut pairings = Vec::new();
    for p in arr("pairings")? {
        let members = p
            .get("members")
            .and_then(Value::as_array)
            .ok_or("pairing without members")?;
        let functions = members
            .iter()
            .map(|m| {
                m.as_u64()
                    .and_then(|id| function_of.get(&id).cloned())
                    .ok_or_else(|| format!("pairing member {m:?} names no site"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        pairings.push(FoundPairing { functions });
    }
    Ok((bugs, pairings))
}

/// Grade a report: it fails when it misses an injected bug of any class
/// or reports a pairing that neither a real pattern nor a decoy explains.
pub fn grade(manifest: &Manifest, doc: &Value) -> Grade {
    let (bugs, pairings) = match found_records(doc) {
        Ok(r) => r,
        Err(why) => {
            return Grade {
                why,
                ..Grade::default()
            }
        }
    };
    let s = evaluate(manifest, &bugs, &pairings);
    let missed: Vec<String> = s
        .per_kind
        .iter()
        .filter(|(_, injected, found)| found < injected)
        .map(|(kind, injected, found)| format!("{kind} {found}/{injected}"))
        .collect();
    let mut why = Vec::new();
    if !missed.is_empty() {
        why.push(format!("missed bugs: {}", missed.join(", ")));
    }
    if s.unexplained_pairings > 0 {
        why.push(format!("{} unexplained pairings", s.unexplained_pairings));
    }
    Grade {
        pass: why.is_empty(),
        bugs_injected: s.bugs_injected,
        bugs_found: s.bugs_found,
        unexplained_pairings: s.unexplained_pairings,
        decoy_pairings: s.decoy_pairings_found,
        decoy_false_positives: s.bug_false_positives,
        why: why.join("; "),
    }
}

/// The report's finding fingerprints, sorted (a multiset).
pub fn fingerprints(doc: &Value) -> Vec<String> {
    let mut out: Vec<String> = doc
        .get("findings")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|f| str_at(f, &["fingerprint"]).to_string())
        .collect();
    out.sort();
    out
}

/// The names of the report's `observability.counters`. Which keys appear
/// should not depend on thread scheduling; today `pool_steals` appears
/// only when the pool happened to steal, so two runs of one input can
/// differ here. The benchmark counts such documents instead of failing
/// them.
pub fn counter_keys(doc: &Value) -> Vec<String> {
    doc.get("observability")
        .and_then(|o| o.get("counters"))
        .and_then(Value::as_object)
        .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofence_corpus::{generate, CorpusSpec};

    /// A real report of a small generated corpus, from the library.
    fn report_of(corpus: &ofence_corpus::Corpus) -> Value {
        let files: Vec<ofence::SourceFile> = corpus
            .files
            .iter()
            .map(|f| ofence::SourceFile::new(f.name.clone(), f.content.clone()))
            .collect();
        let config = ofence::AnalysisConfig {
            detect_missing: true,
            ..Default::default()
        };
        ofence::Engine::new(config).analyze(&files).to_json()
    }

    fn buggy_corpus() -> ofence_corpus::Corpus {
        let mut spec = CorpusSpec::small(5);
        spec.files = 20;
        spec.bugs.misplaced = 2;
        generate(&spec)
    }

    #[test]
    fn correct_report_passes() {
        let corpus = buggy_corpus();
        let g = grade(&corpus.manifest, &report_of(&corpus));
        assert!(g.pass, "{g:?}");
        assert_eq!(g.bugs_found, g.bugs_injected);
    }

    #[test]
    fn tampered_report_dropping_one_finding_fails() {
        let corpus = buggy_corpus();
        let doc = report_of(&corpus);
        let mut text = serde_json::to_string(&doc).unwrap();
        // Drop the first misplaced-access deviation from the document.
        let devs = doc["deviations"].as_array().unwrap();
        let victim = devs
            .iter()
            .find(|d| bug_kind(&d["kind"]) == Some(BugKind::Misplaced))
            .expect("a misplaced finding to drop");
        let victim_text = serde_json::to_string(victim).unwrap();
        for pat in [format!("{victim_text},"), format!(",{victim_text}")] {
            if text.contains(&pat) {
                text = text.replacen(&pat, "", 1);
                break;
            }
        }
        let tampered = parse(text.as_bytes()).unwrap();
        assert_eq!(
            tampered["deviations"].as_array().unwrap().len() + 1,
            devs.len()
        );
        let g = grade(&corpus.manifest, &tampered);
        assert!(!g.pass);
        assert!(g.why.contains("Misplaced"), "{}", g.why);
    }

    #[test]
    fn unexplained_pairing_fails() {
        let corpus = buggy_corpus();
        let mut manifest = corpus.manifest.clone();
        manifest.expected_pairings.truncate(1);
        let g = grade(&manifest, &report_of(&corpus));
        assert!(!g.pass);
        assert!(g.unexplained_pairings > 0);
    }
}
