//! Correctness gates shared by both passes: CLI output parsing and the
//! serving oracle.

use dbtf::FactorSet;
use dbtf_oracle::{serving_point, serving_slice, serving_topk};
use dbtf_serve::{Request, ServeClient};
use dbtf_telemetry::JsonValue;
use dbtf_tensor::BoolTensor;

use crate::gen::encode;

/// The number after `key` in `text`, e.g. `|X ⊕ X̃| = 123` → 123.
fn number_after(text: &str, key: &str) -> Option<u64> {
    let rest = &text[text.find(key)? + key.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// `|X ⊕ X̃| = N` from a `dbtf factorize` summary.
pub fn factorize_error(stdout: &str) -> Result<u64, String> {
    number_after(stdout, "|X ⊕ X̃| =").ok_or_else(|| format!("no error in output: {stdout:?}"))
}

/// What `dbtf update` reported.
#[derive(Debug, PartialEq, Eq)]
pub struct UpdateReport {
    pub resweep: u64,
    pub pre: u64,
    pub post: u64,
    pub served_version: u64,
}

/// Parses `re-swept K of R columns [..]: |X ⊕ X̃| PRE → POST …` and
/// `reloaded ADDR: serving vN …`.
pub fn update_report(stdout: &str) -> Result<UpdateReport, String> {
    let bad = || format!("unexpected update output: {stdout:?}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("re-swept"))
        .ok_or_else(bad)?;
    let pre = number_after(line, "|X ⊕ X̃|").ok_or_else(bad)?;
    Ok(UpdateReport {
        resweep: number_after(line, "re-swept").ok_or_else(bad)?,
        pre,
        post: number_after(line, "→").ok_or_else(bad)?,
        served_version: number_after(stdout, "serving v").ok_or_else(bad)?,
    })
}

/// The slow, independent answers for one factor set: a materialized
/// reconstruction plus the `dbtf_oracle` serving functions.
pub struct Oracle {
    factors: FactorSet,
    recon: BoolTensor,
}

impl Oracle {
    pub fn new(factors: FactorSet) -> Oracle {
        let recon = factors.reconstruct();
        Oracle { factors, recon }
    }

    /// Checks one reply line against the oracle's answer to `request`.
    pub fn check(&self, request: &Request, reply: &str) -> Result<(), String> {
        let v = JsonValue::parse(reply).map_err(|e| format!("unparseable reply {reply:?}: {e}"))?;
        if v.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!("error reply {reply:?} to {request:?}"));
        }
        let ints = |key: &str| -> Option<Vec<u64>> {
            v.get(key)?
                .as_array()?
                .iter()
                .map(JsonValue::as_u64)
                .collect()
        };
        let agree = match *request {
            Request::Point { i, j, k } => {
                v.get("value").and_then(JsonValue::as_bool)
                    == Some(serving_point(&self.recon, i, j, k))
            }
            Request::Slice { free_mode, lo, hi } => {
                let want: Vec<u64> = serving_slice(&self.recon, free_mode, lo, hi)
                    .into_iter()
                    .map(|t| t as u64)
                    .collect();
                ints("indices") == Some(want)
            }
            Request::Topk { mode, entity, k } => {
                let f = &self.factors;
                let want = serving_topk(&f.a, &f.b, &f.c, mode, entity, k);
                let got: Option<Vec<(usize, u64)>> = v
                    .get("columns")
                    .and_then(JsonValue::as_array)
                    .and_then(|cols| {
                        cols.iter()
                            .map(|pair| {
                                let pair = pair.as_array()?;
                                Some((pair.first()?.as_u64()? as usize, pair.get(1)?.as_u64()?))
                            })
                            .collect()
                    });
                got == Some(want)
            }
            _ => false,
        };
        if agree {
            Ok(())
        } else {
            Err(format!(
                "oracle disagrees with reply {reply:?} to {request:?}"
            ))
        }
    }

    /// Sends `requests` closed-loop over `client` and checks every reply.
    pub fn check_live(&self, client: &mut ServeClient, requests: &[Request]) -> Result<(), String> {
        for (n, request) in requests.iter().enumerate() {
            let reply = client
                .raw_line(&encode(request, n as u64))
                .map_err(|e| format!("closed-loop query failed: {e:?}"))?;
            self.check(request, &reply)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_summaries() {
        let fac = "factorized BoolTensor[4×4×4, |X| = 9] at rank 2: |X ⊕ X̃| = 123 (4.00% of |X|), 2 iterations\n";
        assert_eq!(factorize_error(fac), Ok(123));
        let upd = "applied 64 delta cells (3 set, 61 cleared) to BoolTensor[..]\n\
                   re-swept 2 of 20 columns [4, 9]: |X ⊕ X̃| 5000 → 4990 over 2 rounds (converged)\n\
                   wrote factor set v3 to s.dbtfs\n\
                   reloaded 127.0.0.1:9: serving v3 (generation 2, 17 cached fibers invalidated)\n";
        assert_eq!(
            update_report(upd),
            Ok(UpdateReport {
                resweep: 2,
                pre: 5000,
                post: 4990,
                served_version: 3
            })
        );
        assert!(update_report("nothing").is_err());
    }
}
