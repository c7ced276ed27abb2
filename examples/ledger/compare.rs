//! `--compare A.json B.json`: two ledger files side by side, one row per
//! workload and end-to-end metric, each with the bound it may worsen by —
//! the tool behind "two sets of runs of one commit agree" and behind any
//! later before/after claim.

use microslip::obs::json::Value;

use crate::catalog::{self, Better, Def};

/// Checks that `BENCHMARK.json` names exactly the workloads and metrics of
/// the catalog, with the same units and directions.
pub fn manifest_check(text: &str) -> Result<(), String> {
    let doc = Value::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("BENCHMARK.json lacks {key}"))
    };
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();

    let workloads: Vec<String> = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.0).collect();
    if workloads != known {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} differ from the ledger's {known:?}"
        ));
    }
    for (key, defs) in [
        ("end_to_end", catalog::END_TO_END),
        ("per_layer", catalog::PER_LAYER),
    ] {
        let listed: Vec<(String, String, String)> = list(key)?
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.name().into()))
            .collect();
        if let Some(i) = (0..listed.len().max(want.len())).find(|&i| listed.get(i) != want.get(i)) {
            return Err(format!(
                "BENCHMARK.json {key}[{i}] is {:?}, the ledger's catalog has {:?}",
                listed.get(i),
                want.get(i)
            ));
        }
    }
    Ok(())
}

/// Regression bound of every end-to-end metric: the contract's from
/// `BENCHMARK.json`, the workload-specific ones from the catalog.
fn bounds(manifest: &Value) -> Result<Vec<(&'static Def, f64)>, String> {
    let listed = manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("manifest lacks end_to_end")?;
    let mut out = Vec::new();
    for def in catalog::END_TO_END {
        let bound = listed
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(def.name))
            .and_then(|m| m.get("bound"))
            .and_then(Value::as_f64)
            .ok_or(format!("manifest has no bound for {}", def.name))?;
        out.push((def, bound));
    }
    for (name, bound) in catalog::WORKLOAD_E2E {
        let def = catalog::per_layer(name).ok_or(format!("{name} is not in the catalog"))?;
        out.push((def, *bound));
    }
    Ok(out)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Layer metrics that are counts or sizes fixed by the inputs: two runs of
/// one commit must report them identically.
fn is_exact(name: &str) -> bool {
    name.starts_with("balance.") && name != "balance.decide_us"
        || name.starts_with("lbm.") && name.ends_with("_bytes")
        || matches!(
            name,
            "serve.scheduled"
                | "serve.cache_hits"
                | "serve.fetch_bytes"
                | "comm.halo_bytes_per_phase"
                | "net.frame_overhead_bytes"
                | "obs.events"
                | "mp.state_bytes"
        )
}

/// Prints the comparison; `Ok(false)` on a breach.
pub fn run(a_path: &str, b_path: &str, manifest_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let manifest = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("reading {manifest_path}: {e}"))?;
    manifest_check(&manifest)?;
    let bounds = bounds(&Value::parse(&manifest)?)?;
    let profile = |v: &Value| {
        v.get("profile")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    if profile(&a) != profile(&b) {
        return Err(format!(
            "{a_path} is profile {} and {b_path} is profile {}: their numbers are not comparable",
            profile(&a),
            profile(&b)
        ));
    }
    println!("A = {a_path}, B = {b_path}, profile {}; worse = B relative to A, in the metric's bad direction", profile(&a));
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse %", "bound %"
    );

    let mut ok = true;
    for (workload, _) in catalog::WORKLOADS {
        let section = |v: &Value, part: &str| v.get("workloads")?.get(workload)?.get(part).cloned();
        let (Some(ea), Some(eb)) = (section(&a, "end_to_end"), section(&b, "end_to_end")) else {
            println!("{workload:<16} missing from one of the files");
            ok = false;
            continue;
        };
        for (def, bound) in &bounds {
            let (Some(ma), Some(mb)) = (ea.get(def.name), eb.get(def.name)) else {
                continue;
            };
            let (Some(va), Some(vb)) = (
                ma.get("value").and_then(Value::as_f64),
                mb.get("value").and_then(Value::as_f64),
            ) else {
                continue;
            };
            let worse = match def.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let flagged = [ma, mb].iter().any(|m| m.get("unresolved").is_some());
            let noisy = [ma, mb].iter().any(|m| {
                m.get("spread")
                    .and_then(Value::as_f64)
                    .is_some_and(|s| s > *bound)
            });
            let verdict = if flagged || noisy {
                "unresolved"
            } else if worse > *bound {
                ok = false;
                "BREACH"
            } else {
                "ok"
            };
            println!(
                "{workload:<16} {:<14} {va:>14.6} {vb:>14.6} {:>9.2} {:>7.1}  {verdict}",
                def.name,
                100.0 * worse,
                100.0 * bound
            );
        }
        if let (Some(la), Some(lb)) = (section(&a, "per_layer"), section(&b, "per_layer")) {
            for def in catalog::PER_LAYER.iter().filter(|d| is_exact(d.name)) {
                let value = |l: &Value| {
                    l.get(def.name)
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64)
                };
                if value(&la) != value(&lb) {
                    println!(
                        "{workload:<16} {} is {:?} in A and {:?} in B: an exact count moved",
                        def.name,
                        value(&la),
                        value(&lb)
                    );
                    ok = false;
                }
            }
        }
    }
    println!("{}", if ok { "within bounds" } else { "OUT OF BOUNDS" });
    Ok(ok)
}
