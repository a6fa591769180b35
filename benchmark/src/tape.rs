//! Seeded input tapes. Everything a workload feeds the program derives from
//! `--seed` here; the program sees only the generated SQL and parameters.

use qpe_core::{WorkloadConfig, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// FNV-1a over byte strings: the digest that must repeat for a seed.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A per-purpose RNG stream of one `--seed`: streams with different `lane`s
/// are independent, and none of them equals the seed the pipeline trains on.
pub fn rng(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, lane))
}

fn stream_seed(seed: u64, lane: u64) -> u64 {
    let mut d = Digest::default();
    d.update_u64(seed);
    d.update_u64(lane);
    d.0
}

/// The statement class an op's SQL belongs to, for the per-class latency
/// metrics (`scan_p50_us`, `agg_p50_us`, `join_p50_us`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlClass {
    /// One table, no grouping and no top-N: lookups, filters, filtered counts.
    Scan,
    /// One table with GROUP BY, or ORDER BY + LIMIT.
    Agg,
    /// Two or more tables.
    Join,
}

/// Classifies the generator's SQL (comma joins, upper-case keywords).
pub fn classify(sql: &str) -> SqlClass {
    let from = sql.find(" FROM ").map_or(sql.len(), |i| i + 6);
    let tail = &sql[from..];
    let tables_end = [" WHERE ", " GROUP BY ", " ORDER BY ", " LIMIT "]
        .iter()
        .filter_map(|k| tail.find(k))
        .min()
        .unwrap_or(tail.len());
    if tail[..tables_end].contains(',') {
        SqlClass::Join
    } else if sql.contains(" GROUP BY ") || (sql.contains(" ORDER BY ") && sql.contains(" LIMIT "))
    {
        SqlClass::Agg
    } else {
        SqlClass::Scan
    }
}

/// The literal-free shape of a generated query: numbers read `#`, strings
/// `?`, and an IN list of any length reads as one `?`.
pub fn template(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\'' {
            for q in chars.by_ref() {
                if q == '\'' {
                    break;
                }
            }
            if !out.ends_with("?, ") {
                out.push('?');
            } else {
                out.truncate(out.len() - 2);
            }
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
    out
}

/// Columns whose values are unique in their table.
const UNIQUE_KEYS: [&str; 4] = ["c_custkey", "o_orderkey", "s_suppkey", "n_nationkey"];

/// False for a top-N query over a sort key that repeats. Such a query has
/// no single right answer: where equal keys straddle the LIMIT/OFFSET
/// boundary the two engines keep different rows and the dual run fails with
/// `EngineMismatch` (seen on about 1 in 300 of the generator's
/// `ORDER BY l_extendedprice` queries). No operation of a workload may
/// fail, so the tapes leave these families out.
fn has_one_answer(sql: &str) -> bool {
    match sql.split_once(" ORDER BY ") {
        Some((_, order)) if sql.contains(" LIMIT ") => {
            UNIQUE_KEYS.iter().any(|k| order.starts_with(k))
        }
        _ => true,
    }
}

/// A tape of whole blocks: every block holds one query of every template
/// the generator emits, in the same order, so each block (and each class
/// median) sees the same statement mix whatever the seed; the seed picks
/// the literals.
pub struct ExplainTape {
    pub queries: Vec<String>,
    pub block_len: usize,
}

/// `blocks` blocks of the paper's two query families (joins, top-N) from
/// `WorkloadGenerator`, regrouped by template.
pub fn explain_tape(seed: u64, lane: u64, blocks: usize) -> ExplainTape {
    // Enough draws that even the rarest template (under 1% of the
    // generator's output) has been seen before the first block is cut.
    const MIN_DRAWS: usize = 2000;
    let mut gen = WorkloadGenerator::new(WorkloadConfig {
        seed: stream_seed(seed, lane),
        ..WorkloadConfig::default()
    });
    let mut by_template: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut draws = 0;
    while draws < MIN_DRAWS || by_template.values().any(|q| q.len() < blocks) {
        let sql = gen.next_query();
        draws += 1;
        if has_one_answer(&sql) {
            by_template.entry(template(&sql)).or_default().push(sql);
        }
    }
    let queries = (0..blocks)
        .flat_map(|b| by_template.values().map(move |q| q[b].clone()))
        .collect();
    ExplainTape {
        queries,
        block_len: by_template.len(),
    }
}

pub fn digest_of<S: AsRef<str>>(items: &[S]) -> String {
    let mut d = Digest::default();
    for s in items {
        d.update(s.as_ref().as_bytes());
    }
    d.hex()
}

/// Uniform keys in `1..=n_keys`.
pub struct KeyStream {
    rng: StdRng,
    n_keys: i64,
}

impl KeyStream {
    pub fn new(seed: u64, lane: u64, n_keys: i64) -> Self {
        KeyStream {
            rng: rng(seed, lane),
            n_keys,
        }
    }

    pub fn next_key(&mut self) -> i64 {
        self.rng.gen_range(1..=self.n_keys)
    }

    /// Digest of the first `n` keys of a fresh stream — the tape's identity.
    pub fn digest(seed: u64, lane: u64, n_keys: i64, n: usize) -> String {
        let mut s = KeyStream::new(seed, lane, n_keys);
        let mut d = Digest::default();
        for _ in 0..n {
            d.update_u64(s.next_key() as u64);
        }
        d.hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tape_and_another_seed_another_tape() {
        let a = explain_tape(31415, 1, 8);
        assert_eq!(a.queries, explain_tape(31415, 1, 8).queries);
        assert_eq!(
            digest_of(&a.queries),
            digest_of(&explain_tape(31415, 1, 8).queries)
        );
        assert_ne!(
            digest_of(&a.queries),
            digest_of(&explain_tape(31416, 1, 8).queries)
        );
        assert_ne!(
            digest_of(&a.queries),
            digest_of(&explain_tape(31415, 2, 8).queries)
        );

        assert_eq!(
            KeyStream::digest(7, 1, 7500, 256),
            KeyStream::digest(7, 1, 7500, 256)
        );
        assert_ne!(
            KeyStream::digest(7, 1, 7500, 256),
            KeyStream::digest(8, 1, 7500, 256)
        );
        let mut k = KeyStream::new(7, 1, 10);
        assert!((0..1000).all(|_| (1..=10).contains(&k.next_key())));
    }

    #[test]
    fn every_block_holds_every_template_once() {
        let a = explain_tape(5, 1, 6);
        let b = explain_tape(6, 1, 3);
        assert_eq!(
            a.block_len, b.block_len,
            "the statement mix does not follow the seed"
        );
        assert_eq!(a.queries.len(), 6 * a.block_len);
        let shape = |qs: &[String]| qs.iter().map(|q| template(q)).collect::<Vec<_>>();
        let first = shape(&a.queries[..a.block_len]);
        let distinct: BTreeMap<&String, ()> = first.iter().map(|t| (t, ())).collect();
        assert_eq!(distinct.len(), a.block_len);
        for block in a
            .queries
            .chunks(a.block_len)
            .chain(b.queries.chunks(b.block_len))
        {
            assert_eq!(shape(block), first);
        }
        assert!(a.queries.iter().all(|q| has_one_answer(q)));
    }

    #[test]
    fn templates_drop_literals_only() {
        assert_eq!(
            template("SELECT COUNT(*) FROM customer WHERE SUBSTRING(c_phone, 1, 2) IN ('20', '41', '22') AND c_acctbal > -12.5"),
            "SELECT COUNT(*) FROM customer WHERE SUBSTRING(c_phone, #, #) IN (?) AND c_acctbal > #"
        );
        assert_eq!(
            template("x = 'a' AND y = 'b' LIMIT 5 OFFSET 10"),
            "x = ? AND y = ? LIMIT # OFFSET #"
        );
        assert_eq!(template("o_orderkey < 20"), template("o_orderkey < 149"));
        assert_ne!(
            template("ORDER BY o_orderkey LIMIT 5"),
            template("ORDER BY o_orderkey DESC LIMIT 5")
        );
        assert!(has_one_answer(
            "SELECT o_orderkey FROM orders ORDER BY o_orderkey DESC LIMIT 10 OFFSET 3"
        ));
        assert!(!has_one_answer(
            "SELECT c_custkey, c_acctbal FROM customer ORDER BY c_acctbal DESC LIMIT 5"
        ));
        assert!(has_one_answer(
            "SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority"
        ));
    }

    #[test]
    fn digest_separates_fields() {
        assert_ne!(digest_of(&["ab", "c"]), digest_of(&["a", "bc"]));
    }

    #[test]
    fn classes_follow_sql_shape() {
        use SqlClass::*;
        let cases = [
            ("SELECT c_name FROM customer WHERE c_custkey = 3", Scan),
            ("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'x'", Scan),
            ("SELECT COUNT(*) FROM customer WHERE SUBSTRING(c_phone, 1, 2) IN ('20', '21')", Scan),
            ("SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderstatus = 'f' GROUP BY o_orderpriority", Agg),
            ("SELECT o_orderkey FROM orders ORDER BY o_orderkey DESC LIMIT 10 OFFSET 5", Agg),
            ("SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey", Join),
            ("SELECT COUNT(*) FROM customer, nation, orders WHERE n_name = 'a, b'", Join),
        ];
        for (sql, want) in cases {
            assert_eq!(classify(sql), want, "{sql}");
        }
        // All three classes occur in a block.
        let tape = explain_tape(1, 1, 1);
        for class in [Scan, Agg, Join] {
            assert!(tape.queries.iter().any(|q| classify(q) == class));
        }
    }
}
