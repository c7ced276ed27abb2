//! What one workload run hands back: operations attempted and failed, and
//! named values — and the one-line JSON form the benchmark contract reads.

use std::collections::BTreeMap;

use microslip::obs::json::{self, Value};

use crate::catalog::{self, Better, Def};
use crate::stats;

/// One measured value; where it is the median of several samples,
/// `spread` is their quartile distance as a share of that median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub spread: Option<f64>,
}

/// The result of running one workload once, traced or untraced.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed, for the human reader.
    pub failures: Vec<String>,
    values: BTreeMap<&'static str, Sample>,
}

impl Measured {
    /// Counts one operation; `check` is its verdict.
    pub fn operation(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Records a single value under a catalog name. A name the catalog
    /// does not know is a bug in the ledger, caught on the first run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::per_layer(name).is_some() || catalog::end_to_end(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.values.insert(
            name,
            Sample {
                value,
                spread: None,
            },
        );
    }

    /// Records the median of `samples`, with their spread.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, stats::median(samples));
        if let Some(s) = self.values.get_mut(name) {
            s.spread = stats::iqr_share(samples);
        }
    }

    /// Records the best of `samples` — the largest where higher is
    /// better, else the smallest. No spread goes with it: the quartile
    /// distance of all samples describes their median, not their best,
    /// and `--compare` must not void a best-of row on it.
    pub fn set_best(&mut self, name: &'static str, samples: &[f64]) {
        let higher = catalog::per_layer(name)
            .or(catalog::end_to_end(name))
            .is_some_and(|d| d.better == Better::Higher);
        self.set(
            name,
            if higher {
                stats::max(samples)
            } else {
                stats::min(samples)
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|s| s.value)
    }

    /// The values for `defs` in catalog order. End-to-end metrics must
    /// all be present and non-zero; a per-layer metric the workload never
    /// touched reads 0.
    fn rows(
        &self,
        defs: &'static [Def],
        required: bool,
    ) -> Result<Vec<(&'static Def, Sample)>, String> {
        defs.iter()
            .map(|def| match self.values.get(def.name) {
                Some(s) if !s.value.is_finite() => Err(format!("{} is not finite", def.name)),
                Some(s) if required && s.value == 0.0 => Err(format!("{} reads 0", def.name)),
                Some(s) => Ok((def, *s)),
                None if required => Err(format!("{} was not measured", def.name)),
                None => Ok((
                    def,
                    Sample {
                        value: 0.0,
                        spread: None,
                    },
                )),
            })
            .collect()
    }

    /// Prints every metric by name and unit, then — last — the contract's
    /// JSON line. `extras` adds what the ledger's own report wants on top
    /// of the contract: the workload-specific end-to-end metrics on an
    /// untraced run, and each value's spread.
    pub fn print(&mut self, traced: bool, extras: bool) {
        let rows = if traced {
            self.rows(catalog::PER_LAYER, false)
        } else {
            self.rows(catalog::END_TO_END, true).map(|mut rows| {
                if extras {
                    let specific = catalog::WORKLOAD_E2E.iter().filter_map(|(name, _)| {
                        Some((catalog::per_layer(name)?, *self.values.get(name)?))
                    });
                    rows.extend(specific);
                }
                rows
            })
        };
        let rows = rows.unwrap_or_else(|why| {
            self.operation(Err(why));
            Vec::new()
        });
        for why in &self.failures {
            println!("FAILED: {why}");
        }
        let mut fields = Vec::with_capacity(rows.len());
        for (def, s) in &rows {
            println!("{:<28} {:>16} {}", def.name, json::num(s.value), def.unit);
            let spread = match s.spread.filter(|_| extras) {
                Some(x) => format!(", \"spread\": {}", json::num(x)),
                None => String::new(),
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{spread}}}",
                def.name,
                json::num(s.value),
                def.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// The parsed JSON line of a child run.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit, spread)
    pub metrics: BTreeMap<String, (f64, String, Option<f64>)>,
}

/// Parses the last line of a child's standard output.
pub fn parse_child(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let v =
        Value::parse(line).map_err(|e| format!("child's last line is not JSON ({e}): {line}"))?;
    let count = |key: &str| {
        v.get(key)
            .and_then(Value::as_usize)
            .map(|n| n as u64)
            .ok_or(format!("result lacks {key}"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result lacks metrics")?
    {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or(format!("{name} lacks a value"))?;
        let unit = m
            .get("unit")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        metrics.insert(
            name.clone(),
            (value, unit, m.get("spread").and_then(Value::as_f64)),
        );
    }
    Ok(ChildResult {
        correct: v
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("result lacks correct")?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}
