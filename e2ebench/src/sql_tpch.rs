//! `sql_tpch`: the real-data path, from SQL text to result rows.
//!
//! A round runs four operations one after the other: TPC-H Q9 with the
//! sort-merge plan (Fig. 4's barrier graphlets), Q9 with the hash plan,
//! Q13, and an engine terasort whose shuffle volume exceeds its Cache
//! Worker's capacity. The queries shuffle in memory while the sort spills
//! to disk, so `CacheWorkerStore` is used both ways. No simulator code
//! runs here.
//!
//! Every result is checked against a plain-Rust evaluation over the
//! catalog's `Table::rows`, computed once after set-up.

use crate::metrics::{Metric, SQL_OPS};
use crate::{Layers, Workload};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use swift_engine::{Catalog, Engine, EngineJob, Row, RunOptions, RunStats, Value};
use swift_sim::SimRng;
use swift_sql::{parse, plan_query, PlanOptions};
use swift_workload::{generate_catalog, teragen, terasort_engine_job, Q13_SQL, Q9_SQL};

/// TPC-H catalog scale factor (lineitem has `600 × SCALE` rows). At 40,
/// Q13 took about 15 ms and its median moved by up to 14 % from run to
/// run; at 80 every query's median moves by under 5 %.
const SCALE: u32 = 80;
/// Rows the terasort sorts.
const TERASORT_ROWS: u64 = 40_000;
/// Cache Worker memory of the terasort engine: well under the bytes one
/// shuffle edge moves, so the store spills.
const SORT_CACHE_BYTES: u64 = 256 << 10;
/// Tasks per stage (scan, join, aggregate, map, reduce): the engine runs
/// a stage's tasks on one thread each, so this is its parallelism.
const PARALLELISM: u32 = 2;
/// Relative tolerance on float aggregates: the engine and the reference
/// add the same terms in different orders.
const FLOAT_TOLERANCE: f64 = 1e-9;

fn plan_options(prefer_sort: bool) -> PlanOptions {
    PlanOptions {
        scan_tasks: PARALLELISM,
        shuffle_tasks: PARALLELISM,
        prefer_sort,
    }
}

struct Inputs {
    tpch: Engine,
    sort: Engine,
    sort_job: EngineJob,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let catalog = generate_catalog(SCALE, rng.u64());
        let tera = teragen(TERASORT_ROWS, rng.u64());
        Inputs {
            tpch: Engine::new(catalog),
            sort: Engine::new(tera).with_cache_capacity(SORT_CACHE_BYTES),
            sort_job: terasort_engine_job(1, PARALLELISM, PARALLELISM),
        }
    }

    fn same_data(&self, other: &Inputs) -> bool {
        let same = |a: &Catalog, b: &Catalog| {
            a.table_names() == b.table_names()
                && a.table_names()
                    .iter()
                    .all(|t| a.get(t).map(|x| &x.rows) == b.get(t).map(|x| &x.rows))
        };
        same(self.tpch.catalog(), other.tpch.catalog())
            && same(self.sort.catalog(), other.sort.catalog())
    }
}

fn rows_of<'a>(c: &'a Catalog, table: &str) -> &'a [Row] {
    &c.get(table)
        .expect("generated catalog has every TPC-H table")
        .rows
}

fn int(v: &Value) -> i64 {
    v.as_i64().expect("integer column")
}

fn text(v: &Value) -> &str {
    v.as_str().expect("string column")
}

/// Q9 evaluated directly: profit per (nation, year), ordered by nation
/// ascending then year descending.
fn reference_q9(c: &Catalog) -> Vec<(String, String, f64)> {
    let green: HashMap<i64, bool> = rows_of(c, "tpch_part")
        .iter()
        .map(|p| (int(&p[0]), text(&p[1]).contains("green")))
        .collect();
    let mut supplycost: HashMap<(i64, i64), Vec<f64>> = HashMap::new();
    for ps in rows_of(c, "tpch_partsupp") {
        supplycost
            .entry((int(&ps[0]), int(&ps[1])))
            .or_default()
            .push(ps[2].as_f64().expect("supplycost"));
    }
    let supp_nation: HashMap<i64, i64> = rows_of(c, "tpch_supplier")
        .iter()
        .map(|s| (int(&s[0]), int(&s[2])))
        .collect();
    let order_year: HashMap<i64, &str> = rows_of(c, "tpch_orders")
        .iter()
        .map(|o| (int(&o[0]), &text(&o[2])[..4]))
        .collect();
    let nation: HashMap<i64, &str> = rows_of(c, "tpch_nation")
        .iter()
        .map(|n| (int(&n[0]), text(&n[1])))
        .collect();
    let mut profit: BTreeMap<(String, String), f64> = BTreeMap::new();
    for l in rows_of(c, "tpch_lineitem") {
        let (ok, pk, sk) = (int(&l[0]), int(&l[1]), int(&l[2]));
        if !green.get(&pk).copied().unwrap_or(false) {
            continue;
        }
        let Some(costs) = supplycost.get(&(pk, sk)) else {
            continue;
        };
        let (Some(n), Some(year)) = (
            supp_nation.get(&sk).and_then(|k| nation.get(k)),
            order_year.get(&ok),
        ) else {
            continue;
        };
        let qty = l[3].as_f64().expect("quantity");
        let price = l[4].as_f64().expect("price");
        let discount = l[5].as_f64().expect("discount");
        for cost in costs {
            *profit.entry((n.to_string(), year.to_string())).or_default() +=
                price * (1.0 - discount) - cost * qty;
        }
    }
    let mut out: Vec<(String, String, f64)> =
        profit.into_iter().map(|((n, y), p)| (n, y, p)).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    out
}

/// Q13 evaluated directly: `(c_count, custdist)` ordered by custdist
/// descending then c_count descending.
fn reference_q13(c: &Catalog) -> Vec<(i64, i64)> {
    let mut orders: HashMap<i64, i64> = rows_of(c, "tpch_customer")
        .iter()
        .map(|r| (int(&r[0]), 0))
        .collect();
    for o in rows_of(c, "tpch_orders") {
        if !text(&o[4]).contains("special") {
            if let Some(n) = orders.get_mut(&int(&o[1])) {
                *n += 1;
            }
        }
    }
    let mut dist: BTreeMap<i64, i64> = BTreeMap::new();
    for n in orders.into_values() {
        *dist.entry(n).or_default() += 1;
    }
    let mut out: Vec<(i64, i64)> = dist.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
    out
}

/// Order-free identity of a key/payload row set: count, key sum and the
/// sum of a per-row hash.
fn sort_checksum<'a>(rows: impl Iterator<Item = &'a Row>) -> (u64, u64, u64) {
    let mut out = (0u64, 0u64, 0u64);
    for r in rows {
        let key = int(&r[0]) as u64;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ key;
        for b in text(&r[1]).bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        out = (out.0 + 1, out.1.wrapping_add(key), out.2.wrapping_add(h));
    }
    out
}

fn check_q9(rows: &[Row], want: &[(String, String, f64)]) -> Result<(), String> {
    if rows.len() != want.len() {
        return Err(format!("{} rows, reference has {}", rows.len(), want.len()));
    }
    for (i, (r, (n, y, p))) in rows.iter().zip(want).enumerate() {
        let got = r.get(2).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let (rn, ry) = (r[0].as_str(), r[1].as_str());
        let close = (got - p).abs() <= FLOAT_TOLERANCE * p.abs().max(1.0);
        if rn != Some(n.as_str()) || ry != Some(y.as_str()) || !close {
            return Err(format!("row {i}: {r:?}, reference ({n}, {y}, {p})"));
        }
    }
    Ok(())
}

/// Q9 result rows in the reference's form.
fn q9_tuples(rows: &[Row]) -> Vec<(String, String, f64)> {
    rows.iter()
        .map(|r| {
            let profit = r.get(2).and_then(Value::as_f64).unwrap_or(f64::NAN);
            (r[0].to_string(), r[1].to_string(), profit)
        })
        .collect()
}

fn check_q13(rows: &[Row], want: &[(i64, i64)]) -> Result<(), String> {
    let got: Vec<(Option<i64>, Option<i64>)> = rows
        .iter()
        .map(|r| (r[0].as_i64(), r[1].as_i64()))
        .collect();
    let want: Vec<(Option<i64>, Option<i64>)> =
        want.iter().map(|&(a, b)| (Some(a), Some(b))).collect();
    if got != want {
        return Err(format!("rows {got:?}, reference {want:?}"));
    }
    Ok(())
}

/// The workload.
pub(crate) struct SqlTpch {
    seed: u64,
    inputs: Inputs,
    q9: Vec<(String, String, f64)>,
    q13: Vec<(i64, i64)>,
    sort_input: (u64, u64, u64),
    /// Rows and counters of each operation's first completed run.
    first: [Option<(Vec<Row>, RunStats)>; 4],
}

impl SqlTpch {
    pub(crate) fn new(seed: u64) -> (Self, Duration) {
        let start = Instant::now();
        let inputs = Inputs::generate(seed);
        let gen = start.elapsed();
        let q9 = reference_q9(inputs.tpch.catalog());
        let q13 = reference_q13(inputs.tpch.catalog());
        let sort_input = sort_checksum(rows_of(inputs.sort.catalog(), "teragen").iter());
        let w = SqlTpch {
            seed,
            inputs,
            q9,
            q13,
            sort_input,
            first: Default::default(),
        };
        (w, gen)
    }

    fn check(&self, k: usize, rows: &[Row]) -> Result<(), String> {
        match SQL_OPS[k] {
            "q9_sort" | "q9_hash" => check_q9(rows, &self.q9),
            "q13" => check_q13(rows, &self.q13),
            _ => {
                if let Some(i) = (1..rows.len()).find(|&i| int(&rows[i - 1][0]) > int(&rows[i][0]))
                {
                    return Err(format!("terasort output out of order at row {i}"));
                }
                let got = sort_checksum(rows.iter());
                if got != self.sort_input {
                    return Err(format!(
                        "terasort output (rows, key sum, row hash) {got:?}, input {:?}",
                        self.sort_input
                    ));
                }
                Ok(())
            }
        }
    }
}

impl Workload for SqlTpch {
    fn ops(&self) -> &'static [&'static str] {
        &SQL_OPS
    }

    fn run_op(&mut self, k: usize, layers: Option<&mut Layers>) -> Result<Duration, String> {
        let q = SQL_OPS[k];
        let t0 = Instant::now();
        let (t1, t2, outcome) = if q == "sort" {
            let out = self
                .inputs
                .sort
                .run_with(&self.inputs.sort_job, RunOptions::default());
            (t0, t0, out)
        } else {
            let (sql, opts) = match q {
                "q9_sort" => (Q9_SQL, plan_options(true)),
                "q9_hash" => (Q9_SQL, plan_options(false)),
                _ => (Q13_SQL, plan_options(false)),
            };
            let ast = parse(sql).map_err(|e| format!("parse: {e}"))?;
            let t1 = Instant::now();
            let job = plan_query(&ast, self.inputs.tpch.catalog(), 1, q, &opts)
                .map_err(|e| format!("plan: {e}"))?;
            let t2 = Instant::now();
            (
                t1,
                t2,
                self.inputs.tpch.run_with(&job, RunOptions::default()),
            )
        };
        let t3 = Instant::now();
        let outcome = outcome.map_err(|e| format!("exec: {e}"))?;
        self.check(k, &outcome.rows)?;
        match &self.first[k] {
            Some((rows, _)) if *rows != outcome.rows => {
                return Err("rows differ from the first run's".into());
            }
            Some(_) => {}
            None => {
                self.first[k] = Some((outcome.rows, outcome.stats));
                if let (Some((sorted, _)), Some((hashed, _))) = (&self.first[0], &self.first[1]) {
                    if k < 2 {
                        check_q9(sorted, &q9_tuples(hashed)).map_err(|e| {
                            format!("the sort-merge and hash Q9 plans disagree: {e}")
                        })?;
                    }
                }
            }
        }
        if let Some(layers) = layers {
            if q != "sort" {
                layers.leaf(format!("swift-sql.parse.{q}"), t1 - t0);
                layers.leaf(format!("swift-sql.plan.{q}"), t2 - t1);
            }
            layers.leaf(format!("swift-engine.exec.{q}"), t3 - t2);
        }
        Ok(t3 - t0)
    }

    fn regenerate(&self) -> Result<Duration, String> {
        let start = Instant::now();
        let inputs = Inputs::generate(self.seed);
        let took = start.elapsed();
        if !inputs.same_data(&self.inputs) {
            return Err("catalog".into());
        }
        Ok(took)
    }

    fn threads(&self) -> usize {
        PARALLELISM as usize
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for (q, first) in SQL_OPS.iter().zip(&self.first) {
            let Some((_, s)) = first else { continue };
            out.push(Metric::new(
                format!("swift-engine.tasks_run.{q}"),
                "count",
                s.tasks_run as f64,
            ));
            out.push(Metric::new(
                format!("swift-shuffle.shuffled_bytes.{q}"),
                "bytes",
                s.shuffled_bytes as f64,
            ));
            out.push(Metric::new(
                format!("swift-dag.graphlets.{q}"),
                "count",
                s.graphlets as f64,
            ));
            if *q == "sort" {
                out.push(Metric::new(
                    "swift-shuffle.spilled_bytes.sort",
                    "bytes",
                    s.spilled_bytes as f64,
                ));
            }
        }
        out
    }
}
