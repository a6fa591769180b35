//! Prompt engineering — the paper's Table I, as code.
//!
//! The prompt has three authored parts (background, task description,
//! additional user context) plus the injected KNOWLEDGE blocks (retrieved
//! entries) and the QUESTION (new query + plan pair + execution result).

use crate::knowledge::KnowledgeEntry;
use qpe_htap::engine::EngineKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Prompt construction options (the ablation switches of DESIGN.md A3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PromptConfig {
    /// Include the "you are not allowed to compare the cost estimates"
    /// warning — the paper found omitting it re-enables a failure mode.
    pub forbid_cost_comparison: bool,
    /// Include retrieved KNOWLEDGE blocks (false = DBG-PT-style input).
    pub include_rag: bool,
    /// Scale-factor blurb for the background section.
    pub dataset_description: String,
}

impl Default for PromptConfig {
    fn default() -> Self {
        PromptConfig {
            forbid_cost_comparison: true,
            include_rag: true,
            dataset_description:
                "our dataset follows the default TPC-H schema and contains 100GB of data"
                    .to_string(),
        }
    }
}

/// The QUESTION block: the new query under explanation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Question {
    /// New query SQL.
    pub sql: String,
    /// New TP plan.
    pub tp_plan: qpe_htap::plan::PlanNode,
    /// New AP plan.
    pub ap_plan: qpe_htap::plan::PlanNode,
    /// New execution result — the paper's QUESTION includes it.
    pub winner: EngineKind,
    /// Per-table freshness of the scanned relations (delta backlog +
    /// version stamp) at execution time. Empty when the database was clean
    /// or the caller has no storage access.
    pub freshness: Vec<qpe_htap::storage::TableFreshness>,
}

/// A fully-assembled prompt.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prompt {
    /// Construction options used.
    pub config: PromptConfig,
    /// Retrieved knowledge (empty without RAG) with retrieval distances.
    pub knowledge: Vec<(KnowledgeEntry, f64)>,
    /// The question.
    pub question: Question,
    /// Additional user-provided context lines (e.g. "an additional index has
    /// been created on the c_phone column in the customer table").
    pub user_context: Vec<String>,
}

impl Prompt {
    /// Background section (Table I, first block).
    pub fn background(&self) -> String {
        let mut s = String::new();
        self.write_background(&mut s).expect(INFALLIBLE);
        s
    }

    fn write_background(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str(
            "Background information: We are using RAG to assist database users in \
             understanding query performance across different engines in our HTAP \
             system\u{2014}specifically, why one engine performs faster while the other is \
             slower. Please ensure you are familiar with the TPC-H schema, and ",
        )?;
        out.write_str(&self.config.dataset_description)?;
        out.write_str(
            ". Our HTAP system has two database engines, \"TP\" and \"AP\". The TP \
             engine uses row-oriented storage, while the AP engine utilizes \
             column-oriented storage. Note that the optimizers for TP and AP engines \
             are distinct, leading to different execution plans.",
        )?;
        if self.config.forbid_cost_comparison {
            out.write_str(
                " Therefore, you are not allowed to compare the cost estimates of the \
                 execution plans from TP and AP engines.",
            )?;
        }
        Ok(())
    }

    /// Task-description section (Table I, second block).
    pub fn task_description(&self) -> String {
        let mut s = String::new();
        self.write_task_description(&mut s).expect(INFALLIBLE);
        s
    }

    fn write_task_description(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str(
            "Task description: I will input you the execution plans for the query from \
             both the TP and AP engines, please evaluate the likely performance of each \
             engine",
        )?;
        if self.config.forbid_cost_comparison {
            out.write_str(" without directly comparing the cost estimates")?;
        }
        out.write_str(
            ". Focus on factors such as the join methods used, the storage formats \
             (row-oriented vs. column-oriented), index utilization, and any potential \
             implications of the execution plan characteristics on query performance. \
             Your task is to explain which engine might perform better for this \
             specific query and why, based on these factors.",
        )?;
        if self.config.include_rag {
            out.write_str(
                " To assist you, we have a retriever that can find relevant historical \
                 plans from the knowledge base with precise performance explanation from \
                 our experts. You could use KNOWLEDGE to explain the new pair of plans \
                 in QUESTION. If the KNOWLEDGE does not contain the facts to answer the \
                 QUESTION return None.",
            )?;
        }
        Ok(())
    }

    /// Renders the complete prompt text sent to the (simulated) LLM.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out).expect(INFALLIBLE);
        out
    }

    /// Token count of the rendered prompt, split at whitespace as
    /// `str::split_whitespace` splits it (good enough for the latency
    /// model). It streams the text [`Prompt::render`] would build through a
    /// counting sink, so it is exactly `render().split_whitespace().count()`
    /// without building the string.
    pub fn token_count(&self) -> usize {
        let mut counter = TokenCounter::default();
        self.write_to(&mut counter).expect("counting tokens cannot fail");
        counter.tokens
    }

    /// The one writer of the prompt text: [`Prompt::render`] collects it
    /// into a `String`, [`Prompt::token_count`] counts it as it streams.
    fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        self.write_background(out)?;
        out.write_str("\n\n")?;
        self.write_task_description(out)?;
        out.write_str("\n\n")?;
        if !self.user_context.is_empty() {
            out.write_str("Additional user context: ")?;
            for (i, line) in self.user_context.iter().enumerate() {
                if i > 0 {
                    out.write_char(' ')?;
                }
                out.write_str(line)?;
            }
            out.write_str("\n\n")?;
        }
        if self.config.include_rag {
            for (entry, dist) in &self.knowledge {
                entry.write_to(out)?;
                write!(out, "  (retrieval distance: {dist:.4})\n\n")?;
            }
        }
        write!(
            out,
            "QUESTION:\n  new query: {}\n  new TP plan: {}\n  new AP plan: {}\n  \
             new execution result: {} is faster\n",
            self.question.sql,
            self.question.tp_plan.explain_json(),
            self.question.ap_plan.explain_json(),
            self.question.winner,
        )?;
        for f in &self.question.freshness {
            writeln!(
                out,
                "  table freshness: {} version={} delta_rows={} deleted_rows={}",
                f.table, f.version, f.delta_rows, f.deleted_rows
            )?;
        }
        Ok(())
    }
}

pub(crate) const INFALLIBLE: &str = "writing to a String cannot fail";

/// A `fmt::Write` sink that counts whitespace-separated tokens, splitting
/// where `str::split_whitespace` splits (`char::is_whitespace`). Whether
/// the last character seen was inside a token carries across writes, so a
/// token split over two `write_str` calls counts once.
#[derive(Default)]
struct TokenCounter {
    tokens: usize,
    in_token: bool,
}

impl fmt::Write for TokenCounter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // Byte by byte, without branching on ASCII text: the ASCII
        // whitespace is U+0009..=U+000D and the space (U+000B included,
        // unlike `u8::is_ascii_whitespace`); a multi-byte character is
        // classified at its lead byte and its continuation bytes keep that
        // class.
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let in_token = if b < 0x80 {
                (b != b' ') & (b.wrapping_sub(b'\t') > 4)
            } else if b < 0xc0 {
                self.in_token
            } else {
                !s[i..].starts_with(char::is_whitespace)
            };
            self.tokens += usize::from(in_token & !self.in_token);
            self.in_token = in_token;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::FactorKind;
    use proptest::prelude::*;
    use serde_json::json;

    fn question() -> Question {
        use qpe_htap::plan::{NodeType, PlanNode, PlanOp};
        let scan = |cost: f64| {
            PlanNode::new(
                NodeType::TableScan,
                PlanOp::TableScan { table_slot: 0, columns: vec![0], pushed: None },
            )
            .with_relation("orders")
            .with_estimates(cost, 100.0)
        };
        Question {
            sql: "SELECT COUNT(*) FROM orders".into(),
            tp_plan: scan(5213.0),
            ap_plan: scan(16_500_000.0),
            winner: EngineKind::Ap,
            freshness: vec![],
        }
    }

    fn entry() -> KnowledgeEntry {
        KnowledgeEntry {
            sql: "SELECT COUNT(*) FROM customer".into(),
            tp_plan: json!({"Node Type": "Table Scan"}),
            ap_plan: json!({"Node Type": "Table Scan"}),
            winner: EngineKind::Ap,
            speedup: 2.0,
            primary_factor: FactorKind::ColumnarScanAdvantage,
            factors: vec![FactorKind::ColumnarScanAdvantage],
            explanation: "columnar scan".into(),
        }
    }

    #[test]
    fn default_prompt_has_cost_warning() {
        let p = Prompt {
            config: PromptConfig::default(),
            knowledge: vec![(entry(), 0.1)],
            question: question(),
            user_context: vec![],
        };
        let text = p.render();
        assert!(text.contains("not allowed to compare the cost estimates"));
        assert!(text.contains("KNOWLEDGE:"));
        assert!(text.contains("QUESTION:"));
        assert!(text.contains("new execution result: AP is faster"));
    }

    #[test]
    fn ablated_prompt_drops_cost_warning() {
        let p = Prompt {
            config: PromptConfig {
                forbid_cost_comparison: false,
                ..Default::default()
            },
            knowledge: vec![],
            question: question(),
            user_context: vec![],
        };
        assert!(!p.render().contains("not allowed to compare"));
    }

    #[test]
    fn no_rag_prompt_has_no_knowledge_section() {
        let p = Prompt {
            config: PromptConfig {
                include_rag: false,
                ..Default::default()
            },
            knowledge: vec![(entry(), 0.1)],
            question: question(),
            user_context: vec![],
        };
        let text = p.render();
        assert!(!text.contains("KNOWLEDGE:"));
        assert!(!text.contains("return None"));
    }

    #[test]
    fn user_context_is_included() {
        let p = Prompt {
            config: PromptConfig::default(),
            knowledge: vec![],
            question: question(),
            user_context: vec![
                "Beyond the default indexes, an additional index has been created on \
                 the c_phone column in the customer table."
                    .into(),
            ],
        };
        assert!(p.render().contains("additional index has been created on the c_phone"));
    }

    #[test]
    fn token_count_is_positive_and_grows_with_knowledge() {
        let base = Prompt {
            config: PromptConfig::default(),
            knowledge: vec![],
            question: question(),
            user_context: vec![],
        };
        let with_k = Prompt {
            knowledge: vec![(entry(), 0.1), (entry(), 0.2)],
            ..base.clone()
        };
        assert!(base.token_count() > 50);
        assert!(with_k.token_count() > base.token_count());
    }
    fn golden_plan() -> qpe_htap::plan::PlanNode {
        use qpe_htap::plan::{NodeType, PlanNode, PlanOp};
        PlanNode::new(
            NodeType::HashJoin,
            PlanOp::TableScan { table_slot: 0, columns: vec![0], pushed: None },
        )
        .with_detail("o_custkey = c_custkey\t\"quoted\"")
        .with_estimates(1234.56789, 1500.4)
        .with_child(
            PlanNode::new(
                NodeType::TableScan,
                PlanOp::TableScan { table_slot: 0, columns: vec![0], pushed: None },
            )
            .with_relation("orders")
            .with_estimates(-0.0, 15000.0),
        )
        .with_child(
            PlanNode::new(
                NodeType::IndexScan,
                PlanOp::TableScan { table_slot: 1, columns: vec![0], pushed: None },
            )
            .with_relation("customer")
            .with_index("c_pk")
            .with_estimates(2.75, 1.0),
        )
    }

    fn golden_question() -> Question {
        Question {
            sql: "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey".into(),
            tp_plan: golden_plan(),
            ap_plan: question().ap_plan,
            winner: EngineKind::Tp,
            freshness: vec![
                qpe_htap::storage::TableFreshness {
                    table: "orders".into(),
                    version: 7,
                    base_rows: 15000,
                    delta_rows: 12,
                    live_delta_rows: 10,
                    deleted_rows: 3,
                },
                qpe_htap::storage::TableFreshness {
                    table: "customer".into(),
                    version: 1,
                    base_rows: 1500,
                    delta_rows: 0,
                    live_delta_rows: 0,
                    deleted_rows: 0,
                },
            ],
        }
    }

    fn golden_entry() -> KnowledgeEntry {
        KnowledgeEntry {
            sql: "SELECT * FROM lineitem WHERE l_comment = 'a\\b'".into(),
            tp_plan: json!({"Node Type": "Index Scan", "Total Cost": 0.5, "Plan Rows": 3,
                            "Plans": [{"Node Type": "Filter", "Detail": "line\nbreak"}]}),
            ap_plan: json!({"Node Type": "Table Scan", "Big": 18446744073709551615u64, "Flag": true, "None": null}),
            winner: EngineKind::Tp,
            speedup: 12.25,
            primary_factor: FactorKind::ColumnarScanAdvantage,
            factors: vec![FactorKind::ColumnarScanAdvantage],
            explanation: "TP uses the index.".into(),
        }
    }

    /// RAG on, two retrieved entries, freshness lines.
    fn golden_rag_prompt() -> Prompt {
        Prompt {
            config: PromptConfig::default(),
            knowledge: vec![(entry(), 0.123456), (golden_entry(), 1.5)],
            question: golden_question(),
            user_context: vec![],
        }
    }

    /// RAG off (its knowledge is not rendered) with user context.
    fn golden_no_rag_prompt() -> Prompt {
        Prompt {
            config: PromptConfig {
                include_rag: false,
                forbid_cost_comparison: false,
                dataset_description: "a 1GB sample".into(),
            },
            knowledge: vec![(golden_entry(), 0.25)],
            question: question(),
            user_context: vec!["an index on c_phone exists.".into(), "the cache is cold.".into()],
        }
    }

    /// `render()` of the RAG-on golden prompt, captured before the prompt
    /// text was streamed through one writer.
    const GOLDEN_RAG: &str = concat!(
        "Background information: We are using RAG to assist database users in ",
        "understanding query performance across different engines in our HTAP ",
        "system—specifically, why one engine performs faster while the other is ",
        "slower. Please ensure you are familiar with the TPC-H schema, and our ",
        "dataset follows the default TPC-H schema and contains 100GB of data. Our ",
        "HTAP system has two database engines, \"TP\" and \"AP\". The TP engine uses ",
        "row-oriented storage, while the AP engine utilizes column-oriented storage. ",
        "Note that the optimizers for TP and AP engines are distinct, leading to ",
        "different execution plans. Therefore, you are not allowed to compare the ",
        "cost estimates of the execution plans from TP and AP engines.\n",
        "\n",
        "Task description: I will input you the execution plans for the query from ",
        "both the TP and AP engines, please evaluate the likely performance of each ",
        "engine without directly comparing the cost estimates. Focus on factors such ",
        "as the join methods used, the storage formats (row-oriented vs. ",
        "column-oriented), index utilization, and any potential implications of the ",
        "execution plan characteristics on query performance. Your task is to ",
        "explain which engine might perform better for this specific query and why, ",
        "based on these factors. To assist you, we have a retriever that can find ",
        "relevant historical plans from the knowledge base with precise performance ",
        "explanation from our experts. You could use KNOWLEDGE to explain the new ",
        "pair of plans in QUESTION. If the KNOWLEDGE does not contain the facts to ",
        "answer the QUESTION return None.\n",
        "\n",
        "KNOWLEDGE:\n",
        "  historical query: SELECT COUNT(*) FROM customer\n",
        "  historical TP plan: {\"Node Type\":\"Table Scan\"}\n",
        "  historical AP plan: {\"Node Type\":\"Table Scan\"}\n",
        "  historical execution result: AP is faster (2.0x)\n",
        "  historical expert explanation: columnar scan\n",
        "  (retrieval distance: 0.1235)\n",
        "\n",
        "KNOWLEDGE:\n",
        "  historical query: SELECT * FROM lineitem WHERE l_comment = 'a\\b'\n",
        "  historical TP plan: {\"Node Type\":\"Index Scan\",\"Total Cost\":0.5,\"Plan ",
        "Rows\":3,\"Plans\":[{\"Node Type\":\"Filter\",\"Detail\":\"line\\nbreak\"}]}\n",
        "  historical AP plan: {\"Node Type\":\"Table ",
        "Scan\",\"Big\":18446744073709551615,\"Flag\":true,\"None\":null}\n",
        "  historical execution result: TP is faster (12.2x)\n",
        "  historical expert explanation: TP uses the index.\n",
        "  (retrieval distance: 1.5000)\n",
        "\n",
        "QUESTION:\n",
        "  new query: SELECT o_orderkey FROM orders JOIN customer ON o_custkey = ",
        "c_custkey\n",
        "  new TP plan: {\"Node Type\":\"Inner hash join\",\"Total Cost\":1234.568,\"Plan ",
        "Rows\":1500,\"Detail\":\"o_custkey = c_custkey\\t\\\"quoted\\\"\",\"Plans\":[{\"Node ",
        "Type\":\"Table Scan\",\"Relation Name\":\"orders\",\"Total Cost\":-0.0,\"Plan ",
        "Rows\":15000},{\"Node Type\":\"Index Scan\",\"Relation Name\":\"customer\",\"Index ",
        "Name\":\"c_pk\",\"Total Cost\":2.75,\"Plan Rows\":1}]}\n",
        "  new AP plan: {\"Node Type\":\"Table Scan\",\"Relation Name\":\"orders\",\"Total ",
        "Cost\":16500000.0,\"Plan Rows\":100}\n",
        "  new execution result: TP is faster\n",
        "  table freshness: orders version=7 delta_rows=12 deleted_rows=3\n",
        "  table freshness: customer version=1 delta_rows=0 deleted_rows=0\n",
    );

    /// `render()` of the RAG-off golden prompt, captured likewise.
    const GOLDEN_NO_RAG: &str = concat!(
        "Background information: We are using RAG to assist database users in ",
        "understanding query performance across different engines in our HTAP ",
        "system—specifically, why one engine performs faster while the other is ",
        "slower. Please ensure you are familiar with the TPC-H schema, and a 1GB ",
        "sample. Our HTAP system has two database engines, \"TP\" and \"AP\". The TP ",
        "engine uses row-oriented storage, while the AP engine utilizes ",
        "column-oriented storage. Note that the optimizers for TP and AP engines are ",
        "distinct, leading to different execution plans.\n",
        "\n",
        "Task description: I will input you the execution plans for the query from ",
        "both the TP and AP engines, please evaluate the likely performance of each ",
        "engine. Focus on factors such as the join methods used, the storage formats ",
        "(row-oriented vs. column-oriented), index utilization, and any potential ",
        "implications of the execution plan characteristics on query performance. ",
        "Your task is to explain which engine might perform better for this specific ",
        "query and why, based on these factors.\n",
        "\n",
        "Additional user context: an index on c_phone exists. the cache is cold.\n",
        "\n",
        "QUESTION:\n",
        "  new query: SELECT COUNT(*) FROM orders\n",
        "  new TP plan: {\"Node Type\":\"Table Scan\",\"Relation Name\":\"orders\",\"Total ",
        "Cost\":5213.0,\"Plan Rows\":100}\n",
        "  new AP plan: {\"Node Type\":\"Table Scan\",\"Relation Name\":\"orders\",\"Total ",
        "Cost\":16500000.0,\"Plan Rows\":100}\n",
        "  new execution result: AP is faster\n",
    );

    #[test]
    fn render_is_byte_identical_to_golden_text() {
        assert_eq!(golden_rag_prompt().render(), GOLDEN_RAG);
        assert_eq!(golden_no_rag_prompt().render(), GOLDEN_NO_RAG);
    }

    #[test]
    fn token_count_of_golden_prompts() {
        for p in [golden_rag_prompt(), golden_no_rag_prompt()] {
            assert_eq!(p.token_count(), p.render().split_whitespace().count());
        }
        assert_eq!(golden_rag_prompt().token_count(), 383);
        assert_eq!(golden_no_rag_prompt().token_count(), 202);
    }

    #[test]
    fn token_counter_carries_state_across_writes() {
        use std::fmt::Write;
        let mut c = TokenCounter::default();
        for piece in ["ab", "c d", " ", "", "e\u{3000}", "\u{b}f", "g"] {
            c.write_str(piece).unwrap();
        }
        // "abc", "d", "e", "fg"
        assert_eq!(c.tokens, 4);
    }

    /// Characters for generated text: ASCII letters and punctuation that JSON
    /// escapes, every ASCII whitespace `split_whitespace` splits at (U+000B
    /// among them, which `u8::is_ascii_whitespace` leaves out), non-ASCII
    /// whitespace, and look-alikes that are not whitespace (U+200B, U+180E).
    const CHARS: &[char] = &[
        'a', 'b', 'x', '(', '"', '\\', '\u{1}', ' ', '\t', '\n', '\u{b}', '\u{c}', '\r',
        '\u{85}', '\u{a0}', '\u{1680}', '\u{2003}', '\u{2028}', '\u{3000}', '\u{200b}',
        '\u{180e}', '\u{e9}',
    ];

    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(0..CHARS.len(), 0..10)
            .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
    }

    fn generated_entry() -> impl Strategy<Value = (KnowledgeEntry, f64)> {
        (text(), text(), text(), -1.0e3f64..1.0e3).prop_map(|(sql, detail, explanation, x)| {
            let entry = KnowledgeEntry {
                sql,
                tp_plan: json!({"Node Type": "Filter", "Detail": detail}),
                ap_plan: json!({"Plans": [{"Total Cost": x}]}),
                speedup: x.abs(),
                explanation,
                ..entry()
            };
            (entry, x)
        })
    }

    fn generated_prompt() -> impl Strategy<Value = Prompt> {
        let switches = (any::<bool>(), any::<bool>(), text());
        let asked = (text(), text(), 0usize..3);
        let extras = (
            prop::collection::vec(generated_entry(), 0..3),
            prop::collection::vec(text(), 0..3),
        );
        (switches, asked, extras).prop_map(
            |((include_rag, forbid, dataset), (sql, detail, n_fresh), (knowledge, user_context))| {
                let base = golden_question();
                Prompt {
                    config: PromptConfig {
                        include_rag,
                        forbid_cost_comparison: forbid,
                        dataset_description: dataset,
                    },
                    knowledge,
                    question: Question {
                        sql,
                        tp_plan: base.tp_plan.with_detail(detail),
                        freshness: base.freshness.into_iter().cycle().take(n_fresh).collect(),
                        ..question()
                    },
                    user_context,
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn token_count_equals_split_whitespace_of_render(p in generated_prompt()) {
            prop_assert_eq!(p.token_count(), p.render().split_whitespace().count());
        }
    }
}
