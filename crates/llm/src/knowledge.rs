//! Knowledge-base entry payloads.
//!
//! Each entry mirrors the paper's §IV tuple: `<plan pair encoding, plan
//! details, execution result, expert explanation>`. The embedding key lives
//! in the vector store; this is the value.

use crate::factors::FactorKind;
use qpe_htap::engine::EngineKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One historical query with its expert explanation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnowledgeEntry {
    /// The historical SQL text.
    pub sql: String,
    /// TP plan details (EXPLAIN JSON, as the paper stores them).
    pub tp_plan: serde_json::Value,
    /// AP plan details.
    pub ap_plan: serde_json::Value,
    /// Execution result: which engine was faster.
    pub winner: EngineKind,
    /// Loser/winner latency ratio observed.
    pub speedup: f64,
    /// The expert's primary factor.
    pub primary_factor: FactorKind,
    /// All factors the expert cited.
    pub factors: Vec<FactorKind>,
    /// The expert's natural-language explanation.
    pub explanation: String,
}

impl KnowledgeEntry {
    /// Renders the entry as a KNOWLEDGE block for the prompt (paper format:
    /// historical query + plan pair + execution result + expert explanation).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out).expect(crate::prompt::INFALLIBLE);
        out
    }

    /// Writes the KNOWLEDGE block [`KnowledgeEntry::render`] returns; the
    /// prompt streams it through the same writer.
    pub(crate) fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(
            out,
            "KNOWLEDGE:\n  historical query: {}\n  historical TP plan: {}\n  \
             historical AP plan: {}\n  historical execution result: {} is faster \
             ({:.1}x)\n  historical expert explanation: {}\n",
            self.sql,
            self.tp_plan,
            self.ap_plan,
            self.winner,
            self.speedup,
            self.explanation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn entry() -> KnowledgeEntry {
        KnowledgeEntry {
            sql: "SELECT COUNT(*) FROM orders".into(),
            tp_plan: json!({"Node Type": "Table Scan"}),
            ap_plan: json!({"Node Type": "Table Scan"}),
            winner: EngineKind::Ap,
            speedup: 3.5,
            primary_factor: FactorKind::ColumnarScanAdvantage,
            factors: vec![FactorKind::ColumnarScanAdvantage],
            explanation: "AP scans one column.".into(),
        }
    }

    #[test]
    fn render_contains_all_sections() {
        let text = entry().render();
        assert!(text.contains("historical query: SELECT COUNT(*)"));
        assert!(text.contains("historical execution result: AP is faster (3.5x)"));
        assert!(text.contains("historical expert explanation: AP scans one column."));
        assert!(text.contains("Table Scan"));
    }

    #[test]
    fn serde_roundtrip() {
        let e = entry();
        let json = serde_json::to_string(&e).unwrap();
        let e2: KnowledgeEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(e, e2);
    }
}
