//! A golden of the TP engine's work: rows, every `WorkCounters` field and
//! the plan, per generated query.
//!
//! The TP row interpreter is the reference the batch executor is tested
//! against, and the latency model, the router and the explanations read its
//! counters. A change to how it executes — what it copies, how it compares
//! join keys, how it walks an index — must leave all of that exactly as it
//! was. This test pins it: [`QUERIES`] `WorkloadGenerator` queries, covering
//! every template, run on TP against a clean database, and again against
//! one where a DELETE/UPDATE prefix has left tombstoned and relocated rows
//! in every table the templates read. [`SHAPES`], join shapes the
//! generator never emits, run in both passes too; their lines follow the
//! generated ones, `s<n>` in the query column. Each run writes one line:
//!
//! ```text
//! <pass>  <query#>  <rows hash>  <18 WorkCounters fields>  <EXPLAIN JSON hash>
//! ```
//!
//! Both hashes are FNV-1a 64 over a fixed byte encoding, so the file is the
//! same on every platform and toolchain. The committed file is compared
//! byte for byte; a mismatch prints the first differing queries field by
//! field. A change that alters TP work on purpose rewrites it with
//! `cargo test --test tp_work_golden -- --ignored` and explains every
//! changed line.

use qpe_core::workload::{WorkloadConfig, WorkloadGenerator};
use qpe_htap::engine::{EngineKind, HtapSystem};
use qpe_htap::exec::{Row, WorkCounters};
use qpe_htap::tpch::TpchConfig;
use qpe_sql::value::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Queries per pass.
const QUERIES: usize = 2000;
/// Small enough that both passes fit a debug test run; the generator's
/// constants still select, join and offset into real rows.
const SCALE: f64 = 0.001;
const SEED: u64 = 20_261_018;

/// The writes between the two passes: deletes leave tombstones, updates
/// relocate rows to the end of the row store (and re-key an indexed
/// column), on every table the join templates read.
const DML_PREFIX: &[&str] = &[
    "DELETE FROM orders WHERE o_orderkey > 30 AND o_orderkey < 60",
    "UPDATE orders SET o_totalprice = o_totalprice + 1 WHERE o_orderkey < 25",
    "UPDATE orders SET o_custkey = o_custkey + 1 WHERE o_orderkey > 1000 AND o_orderkey < 1100",
    "DELETE FROM customer WHERE c_custkey > 100 AND c_custkey < 110",
    "UPDATE customer SET c_acctbal = c_acctbal - 7 WHERE c_custkey < 40",
    "DELETE FROM lineitem WHERE l_orderkey < 12",
    "UPDATE lineitem SET l_discount = 0.09 WHERE l_orderkey > 40 AND l_orderkey < 50",
    "DELETE FROM supplier WHERE s_suppkey = 3",
    "UPDATE supplier SET s_acctbal = 4999 WHERE s_suppkey < 5",
];

/// Joins read by each kind of parent the generator's templates never put
/// above one: a projection of string columns from both sides, `ORDER BY …
/// LIMIT`, a three-way join under a residual reading all three tables, a
/// `GROUP BY` on an inner-side string column, a filter reading both sides,
/// a bare `LIMIT … OFFSET`, string `MIN`/`MAX` and `COUNT(DISTINCT …)`, a
/// full sort, a filtered cross product, and `HAVING` with `ORDER BY`.
const SHAPES: &[&str] = &[
    "SELECT c_name, o_orderstatus, SUBSTRING(c_phone, 1, 2), o_totalprice - c_acctbal \
     FROM customer, orders WHERE o_custkey = c_custkey AND o_orderkey < 40",
    "SELECT o_orderkey, c_name FROM orders, customer \
     WHERE o_custkey = c_custkey AND c_mktsegment = 'machinery' \
     ORDER BY o_totalprice DESC LIMIT 7",
    "SELECT c_name, n_name, o_totalprice FROM customer, nation, orders \
     WHERE o_custkey = c_custkey AND n_nationkey = c_nationkey \
     AND o_totalprice > c_acctbal * (n_regionkey + 1) AND o_orderkey < 300",
    "SELECT l_linestatus, COUNT(*), SUM(l_extendedprice), MIN(o_orderpriority) \
     FROM orders, lineitem WHERE l_orderkey = o_orderkey AND o_orderstatus = 'f' \
     GROUP BY l_linestatus",
    "SELECT COUNT(*), SUM(c_acctbal) FROM customer, orders \
     WHERE o_custkey = c_custkey AND o_totalprice < c_acctbal * 10",
    "SELECT n_name, s_name FROM supplier, nation \
     WHERE s_nationkey = n_nationkey LIMIT 5 OFFSET 2",
    "SELECT MIN(c_name), MAX(o_orderpriority), COUNT(DISTINCT c_mktsegment) \
     FROM customer, orders WHERE o_custkey = c_custkey AND o_orderkey < 500",
    "SELECT l_orderkey, l_extendedprice, o_orderstatus FROM orders, lineitem \
     WHERE l_orderkey = o_orderkey AND o_orderkey < 30 ORDER BY l_extendedprice",
    "SELECT r_name, n_name FROM nation, region WHERE n_regionkey < r_regionkey \
     ORDER BY n_name, r_name",
    "SELECT o_orderpriority, COUNT(*), AVG(l_discount) FROM orders, lineitem \
     WHERE l_orderkey = o_orderkey AND o_orderkey < 200 \
     GROUP BY o_orderpriority HAVING COUNT(*) > 2 ORDER BY o_orderpriority",
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tp_work.tsv")
}

/// FNV-1a 64.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Int(x) => {
                self.bytes(&[1]);
                self.bytes(&x.to_le_bytes());
            }
            Value::Float(x) => {
                self.bytes(&[2]);
                self.bytes(&x.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                self.bytes(&[3]);
                self.bytes(&(s.len() as u64).to_le_bytes());
                self.bytes(s.as_bytes());
            }
            Value::Date(d) => {
                self.bytes(&[4]);
                self.bytes(&d.to_le_bytes());
            }
        }
    }
}

fn rows_hash(rows: &[Row]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&(rows.len() as u64).to_le_bytes());
    for row in rows {
        h.bytes(&(row.len() as u64).to_le_bytes());
        row.iter().for_each(|v| h.value(v));
    }
    h.0
}

fn text_hash(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.0
}

/// Every counter, in declaration order. The destructuring names each field,
/// so a new counter fails to compile here until the golden covers it.
fn counter_fields(c: &WorkCounters) -> [u64; 18] {
    let WorkCounters {
        rows_scanned,
        cells_scanned,
        index_probes,
        index_fetches,
        filter_evals,
        nlj_pairs,
        hash_build_rows,
        hash_probe_rows,
        sort_comparisons,
        topn_pushes,
        agg_rows,
        output_rows,
        rows_inserted,
        rows_updated,
        rows_deleted,
        index_updates,
        blocks_checked,
        blocks_pruned,
    } = *c;
    [
        rows_scanned,
        cells_scanned,
        index_probes,
        index_fetches,
        filter_evals,
        nlj_pairs,
        hash_build_rows,
        hash_probe_rows,
        sort_comparisons,
        topn_pushes,
        agg_rows,
        output_rows,
        rows_inserted,
        rows_updated,
        rows_deleted,
        index_updates,
        blocks_checked,
        blocks_pruned,
    ]
}

const HEADER: &str = "pass\tquery\trows\trows_scanned\tcells_scanned\tindex_probes\t\
index_fetches\tfilter_evals\tnlj_pairs\thash_build_rows\thash_probe_rows\t\
sort_comparisons\ttopn_pushes\tagg_rows\toutput_rows\trows_inserted\trows_updated\t\
rows_deleted\tindex_updates\tblocks_checked\tblocks_pruned\tplan";

/// The template a query came from: its text with literals, IN lists and
/// OFFSET clauses blanked.
fn template_of(sql: &str) -> String {
    let mut out = String::new();
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\'' {
            for d in chars.by_ref() {
                if d == '\'' {
                    break;
                }
            }
            out.push('?');
        } else if c.is_ascii_digit() || (c == '-' && chars.peek().is_some_and(char::is_ascii_digit))
        {
            while chars
                .peek()
                .is_some_and(|d| d.is_ascii_digit() || *d == '.')
            {
                chars.next();
            }
            out.push('#');
        } else {
            out.push(c);
        }
    }
    while out.contains("?, ?") {
        out = out.replace("?, ?", "?");
    }
    out.replace(" OFFSET #", "")
}

/// One pass's lines: `writes` applied to a fresh system, then every query
/// and every shape run on TP — the queries' lines and the shapes' lines.
fn pass(name: &str, writes: &[&str], queries: &[String]) -> (Vec<String>, Vec<String>) {
    let sys = HtapSystem::new(&TpchConfig::with_scale(SCALE));
    for dml in writes {
        let out = sys.execute_statement(dml).expect(dml);
        let affected = out.as_dml().expect("a write").result.rows_affected;
        assert!(affected > 0, "{dml} touched no row");
    }
    let shapes: Vec<(String, &str)> =
        SHAPES.iter().enumerate().map(|(i, sql)| (format!("s{i}"), *sql)).collect();
    let queries: Vec<(String, &str)> =
        queries.iter().enumerate().map(|(i, sql)| (i.to_string(), sql.as_str())).collect();
    (run_tp(&sys, name, &queries), run_tp(&sys, name, &shapes))
}

/// One line per `(query id, sql)`, each run on `sys`'s TP engine.
fn run_tp(sys: &HtapSystem, name: &str, queries: &[(String, &str)]) -> Vec<String> {
    let mut lines = Vec::with_capacity(queries.len());
    for (i, sql) in queries {
        let sql = *sql;
        let bound = sys.bind(sql).expect(sql);
        let plan = sys.explain(&bound, EngineKind::Tp).expect(sql);
        let plan_hash = text_hash(&plan.explain_json().to_string());
        let run = sys
            .run_engine_with_plan(plan, &bound, EngineKind::Tp)
            .expect(sql);
        let counters: Vec<String> = counter_fields(&run.counters)
            .iter()
            .map(u64::to_string)
            .collect();
        lines.push(format!(
            "{name}\t{i}\t{:016x}\t{}\t{plan_hash:016x}",
            rows_hash(&run.rows),
            counters.join("\t")
        ));
    }
    lines
}

fn queries() -> Vec<String> {
    WorkloadGenerator::new(WorkloadConfig {
        seed: SEED,
        ..Default::default()
    })
    .generate(QUERIES)
}

/// Runs both passes — on two threads, to fit the debug budget — and returns
/// the golden's lines, header first.
fn capture() -> Vec<String> {
    let queries = queries();
    let templates: BTreeSet<String> = queries.iter().map(|q| template_of(q)).collect();
    // 18 templates; the indexed top-N one comes in ASC and DESC.
    assert_eq!(
        templates.len(),
        19,
        "not every template drawn: {templates:#?}"
    );
    let (clean, dirty) = std::thread::scope(|s| {
        let dirty = s.spawn(|| pass("dirty", DML_PREFIX, &queries));
        (
            pass("clean", &[], &queries),
            dirty.join().expect("dirty pass"),
        )
    });
    std::iter::once(HEADER.to_string())
        .chain(clean.0)
        .chain(dirty.0)
        .chain(clean.1)
        .chain(dirty.1)
        .collect()
}

#[test]
fn tp_work_matches_the_golden() {
    let got = capture();
    let path = golden_path();
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let want: Vec<&str> = want.lines().collect();
    let fields: Vec<&str> = HEADER.split('\t').collect();
    let queries = queries();
    let mut report = Vec::new();
    for (g, w) in got.iter().zip(&want) {
        if g == w {
            continue;
        }
        let (gf, wf): (Vec<&str>, Vec<&str>) = (g.split('\t').collect(), w.split('\t').collect());
        let diffs: Vec<String> = fields
            .iter()
            .zip(gf.iter().zip(&wf))
            .filter(|(_, (a, b))| a != b)
            .map(|(name, (a, b))| format!("{name}: golden {b}, now {a}"))
            .collect();
        let sql = gf.get(1).and_then(|id| match id.strip_prefix('s') {
            Some(i) => i.parse::<usize>().ok().and_then(|i| SHAPES.get(i)).map(|s| s.to_string()),
            None => id.parse::<usize>().ok().and_then(|i| queries.get(i)).cloned(),
        });
        report.push(format!(
            "{} {}: {sql:?}\n    {}",
            gf[0],
            gf[1],
            diffs.join("; ")
        ));
        if report.len() == 10 {
            break;
        }
    }
    assert!(
        report.is_empty() && got.len() == want.len(),
        "TP work differs from {} ({} lines now, {} in the golden):\n{}",
        path.display(),
        got.len(),
        want.len(),
        report.join("\n")
    );
}

/// Rewrites the golden from the current code. Ignored so that no test run
/// can bless a change by accident; run it on purpose with `--ignored`.
#[test]
#[ignore = "rewrites tests/golden/tp_work.tsv"]
fn bless_tp_work_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("tests/golden")).expect("mkdir");
    std::fs::write(&path, capture().join("\n") + "\n").expect("write golden");
}
