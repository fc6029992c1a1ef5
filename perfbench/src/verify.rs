//! Reading verdicts back out of the checker's output, in every format,
//! and comparing them with the expected ones.

use crate::corpus::Expect;
use cundef_ub::json::Json;
use cundef_ub::render::Verdict;
use std::collections::BTreeMap;

/// What the checker said about one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Observed {
    /// The verdict, when the output carried one.
    pub verdict: Option<Verdict>,
    /// The first UB code reported.
    pub code: Option<u16>,
    /// The program's exit value, when the format reports it.
    pub exit: Option<i64>,
}

/// Parse a verdict spelling (`defined`/`undefined`/`error`).
pub fn verdict_of(s: &str) -> Option<Verdict> {
    [Verdict::Defined, Verdict::Undefined, Verdict::EngineFailure]
        .into_iter()
        .find(|v| v.as_str() == s)
}

/// The exit code a one-shot run (or a serve response) must carry for
/// a set of verdicts under the default `--fail-on ub`.
pub fn process_exit(verdicts: impl IntoIterator<Item = Verdict>) -> u8 {
    let (mut ub, mut failure) = (false, false);
    for v in verdicts {
        ub |= v == Verdict::Undefined;
        failure |= v == Verdict::EngineFailure;
    }
    if ub {
        1
    } else if failure {
        2
    } else {
        0
    }
}

/// Per-file observations from JSONL output, keyed by the `file` field.
pub fn parse_jsonl(out: &str) -> BTreeMap<String, Observed> {
    let mut seen: BTreeMap<String, Observed> = BTreeMap::new();
    for v in out.lines().filter_map(Json::parse) {
        let Some(file) = v.get("file").and_then(Json::as_str) else {
            continue;
        };
        let o = seen.entry(file.to_string()).or_default();
        match v.get("type").and_then(Json::as_str) {
            Some("finding") if o.code.is_none() => {
                o.code = v
                    .get("code")
                    .and_then(Json::as_u32)
                    .and_then(|c| u16::try_from(c).ok());
            }
            Some("verdict") => {
                o.verdict = v.get("verdict").and_then(Json::as_str).and_then(verdict_of);
                o.exit = v.get("exit").and_then(Json::as_f64).map(|e| e as i64);
            }
            _ => {}
        }
    }
    seen
}

/// Code and exit from one file's human report (`Error: 000NN`,
/// `(program returned N)`); the verdict comes from elsewhere.
pub fn parse_human(out: &str) -> Observed {
    let code = out
        .lines()
        .find_map(|l| l.strip_prefix("Error: "))
        .and_then(|c| c.trim().parse().ok());
    let exit = out.find("(program returned ").and_then(|at| {
        let rest = &out[at + "(program returned ".len()..];
        rest[..rest.find(')')?].parse().ok()
    });
    Observed {
        verdict: None,
        code,
        exit,
    }
}

/// The first result's rule code from a SARIF document (`UB000NN`).
/// SARIF carries no exit value.
pub fn parse_sarif(out: &str) -> Observed {
    const KEY: &str = "\"ruleId\": \"UB";
    let code = out
        .find(KEY)
        .and_then(|at| out.get(at + KEY.len()..at + KEY.len() + 5))
        .and_then(|c| c.parse().ok());
    Observed {
        verdict: None,
        code,
        exit: None,
    }
}

/// Compare an observation with the expectation. A field the output
/// format does not carry is not compared; a verdict is always needed.
pub fn compare(expect: &Expect, seen: &Observed) -> Result<(), String> {
    if seen.verdict != Some(expect.verdict) {
        return Err(format!(
            "verdict {:?}, expected {}",
            seen.verdict.map(Verdict::as_str),
            expect.verdict.as_str()
        ));
    }
    if expect.code.is_some() && seen.code != expect.code {
        return Err(format!(
            "first code {:?}, expected {:?}",
            seen.code, expect.code
        ));
    }
    if let (Some(want), Some(got)) = (expect.exit, seen.exit) {
        if got & 0xFF != want & 0xFF {
            return Err(format!("exit {got}, expected {want}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_format() {
        let jsonl = "{\"type\": \"finding\", \"file\": \"a.c\", \"code\": 16}\n\
                     {\"type\": \"finding\", \"file\": \"a.c\", \"code\": 2}\n\
                     {\"type\": \"verdict\", \"file\": \"a.c\", \"verdict\": \"undefined\"}\n\
                     {\"type\": \"verdict\", \"file\": \"b.c\", \"verdict\": \"defined\", \"exit\": 21}\n";
        let seen = parse_jsonl(jsonl);
        assert_eq!(seen["a.c"].code, Some(16));
        assert_eq!(seen["a.c"].verdict, Some(Verdict::Undefined));
        assert_eq!(seen["b.c"].exit, Some(21));
        let human = parse_human("b.c: no undefined behavior detected (program returned 5)\n");
        assert_eq!(human.exit, Some(5));
        assert_eq!(parse_human("a.c:\nError: 00016\n").code, Some(16));
        let sarif =
            "{\"rules\": [{\"id\": \"UB00001\"}], \"results\": [{\"ruleId\": \"UB00042\"}]}";
        assert_eq!(parse_sarif(sarif).code, Some(42));
    }

    #[test]
    fn compares_only_what_the_format_carries() {
        let ub = Expect {
            verdict: Verdict::Undefined,
            code: Some(16),
            exit: None,
        };
        let mut seen = Observed {
            verdict: Some(Verdict::Undefined),
            code: Some(16),
            exit: None,
        };
        assert!(compare(&ub, &seen).is_ok());
        seen.code = Some(2);
        assert!(compare(&ub, &seen).is_err());
        let ok = Expect {
            verdict: Verdict::Defined,
            code: None,
            exit: Some(3),
        };
        let mut seen = Observed {
            verdict: Some(Verdict::Defined),
            code: None,
            exit: None,
        };
        assert!(compare(&ok, &seen).is_ok(), "SARIF has no exit");
        seen.exit = Some(4);
        assert!(compare(&ok, &seen).is_err());
        assert_eq!(process_exit([Verdict::Defined, Verdict::Undefined]), 1);
        assert_eq!(process_exit([Verdict::Defined]), 0);
    }
}
