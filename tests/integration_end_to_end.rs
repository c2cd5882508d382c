//! Heavyweight end-to-end flows: fine-tune real (tiny) models and drive
//! the full constrained-decoding pipelines.

use lm4db::codegen::{enumerate_programs, generate_tasks, run_pipeline, Synthesizer};
use lm4db::corpus::{facts_from_table, make_domain, DomainKind};
use lm4db::fault::fnv64;
use lm4db::neuraldb::{AllTemplatesExtractor, ExactExtractor, NeuralDb};
use lm4db::sql::run_sql;
use lm4db::tensor::Rand;
use lm4db::text2sql::{generate, DecodeMode, SemanticParser, SqlTrie};
use lm4db::transformer::ModelConfig;

/// [`front_ends_fingerprint`]'s value.
const FRONT_ENDS_FP: u64 = 0x6404_d82f_736b_d3f3;

fn tiny_seq_cfg() -> ModelConfig {
    ModelConfig {
        max_seq_len: 96,
        ..ModelConfig::tiny(0)
    }
}

#[test]
fn constrained_text2sql_always_produces_executable_sql() {
    let d = make_domain(DomainKind::Students, 20, 21);
    let cat = d.catalog();
    let train = generate(&d, 24, 1);
    let trie = SqlTrie::for_domain(&d);
    let mut parser = SemanticParser::new(tiny_seq_cfg(), &train, trie, 5, 700);
    parser.fit(&train, 3, 8, 3e-3);
    for ex in generate(&d, 6, 99) {
        let pred = parser.predict(&ex.question, DecodeMode::Constrained);
        let sql = pred.sql.expect("constrained decoding must complete");
        assert!(run_sql(&sql, &cat).is_ok(), "not executable: {sql}");
    }
}

#[test]
fn constrained_codegen_always_produces_runnable_programs() {
    let d = make_domain(DomainKind::Flights, 20, 22);
    let cat = d.catalog();
    let tasks = generate_tasks(&d, 18, 1);
    let programs = enumerate_programs(&d);
    let mut synth = Synthesizer::new(tiny_seq_cfg(), &tasks, &programs, 6);
    synth.fit(&tasks, 3, 8, 3e-3);
    for t in tasks.iter().take(4) {
        let s = synth.synthesize_constrained(&t.instruction, &cat);
        let p = s.pipeline.expect("constrained synthesis must complete");
        assert!(run_pipeline(&p, &cat).is_ok());
    }
}

/// FNV-1a over every output of the two fine-tuned front-ends: the tiny
/// parser (Students) and synthesizer (Flights) above, fine-tuned the same
/// way. It covers the `fit` loss bits; `predict_batch` in both decode
/// modes at beam width 1 and 3, plus beams cut mid-word by the context
/// window; and `synthesize_constrained` and `synthesize_with_retries(.., 3)`
/// over six instructions each (raw text, attempts, whether a pipeline came
/// back). The constant is the value the two front-ends produced when each
/// kept its own copy of the fine-tune → prompt → beam → read-back path,
/// less the int8 leg the parser had then; a refactor of that path must
/// keep it.
#[test]
fn front_ends_fingerprint() {
    use std::fmt::Write;
    let mut s = String::new();

    let d = make_domain(DomainKind::Students, 20, 21);
    let train = generate(&d, 24, 1);
    let trie = SqlTrie::for_domain(&d);
    let mut parser = SemanticParser::new(tiny_seq_cfg(), &train, trie, 5, 700);
    let loss = parser.fit(&train, 3, 8, 3e-3);
    writeln!(s, "parser loss {:08x}", loss.to_bits()).unwrap();
    let questions = generate(&d, 6, 99);
    let questions: Vec<&str> = questions.iter().map(|ex| ex.question.as_str()).collect();
    for width in [1, 3] {
        parser.set_beam_width(width);
        for mode in [DecodeMode::Constrained, DecodeMode::Unconstrained] {
            for p in parser.predict_batch(&questions, mode) {
                // `qfalse` marked the f32 legs beside an int8 one; the
                // constant hashes that text.
                writeln!(s, "w{width} {mode:?} qfalse: {:?} | {}", p.sql, p.raw).unwrap();
            }
        }
    }
    // Beams the 96-token window cuts mid-word: an untrained parser with a
    // 200-token vocabulary (words in several pieces), greedy under the
    // mask, on questions left-padded towards the window's edge. Some cuts
    // land after a complete query plus part of its next word, which must
    // read back as no SQL.
    let trie = SqlTrie::for_domain(&d);
    let mut cut = SemanticParser::new(tiny_seq_cfg(), &train, trie, 5, 200);
    cut.set_beam_width(1);
    let padded: Vec<String> = (60..76)
        .flat_map(|k| {
            questions
                .iter()
                .map(move |q| format!("{}{q}", "a ".repeat(k)))
        })
        .collect();
    let padded: Vec<&str> = padded.iter().map(String::as_str).collect();
    for p in cut.predict_batch(&padded, DecodeMode::Constrained) {
        writeln!(s, "cut: {:?} | {}", p.sql, p.raw).unwrap();
    }

    let d = make_domain(DomainKind::Flights, 20, 22);
    let cat = d.catalog();
    let tasks = generate_tasks(&d, 18, 1);
    let programs = enumerate_programs(&d);
    let mut synth = Synthesizer::new(tiny_seq_cfg(), &tasks, &programs, 6);
    let loss = synth.fit(&tasks, 3, 8, 3e-3);
    writeln!(s, "synth loss {:08x}", loss.to_bits()).unwrap();
    for t in tasks.iter().take(6) {
        let c = synth.synthesize_constrained(&t.instruction, &cat);
        let r = synth.synthesize_with_retries(&t.instruction, &cat, 3);
        for (leg, syn) in [("constrained", c), ("retries", r)] {
            let ok = syn.pipeline.is_some();
            writeln!(s, "{leg}: {ok} {} | {}", syn.attempts, syn.raw).unwrap();
        }
    }
    assert_eq!(
        fnv64(&s),
        FRONT_ENDS_FP,
        "front-end outputs moved; they were:\n{s}"
    );
}

#[test]
fn neuraldb_agrees_with_sql_on_counts() {
    // The same data queried two ways: through SQL over the table, and
    // through the fact store built from that table's sentences.
    let d = make_domain(DomainKind::Employees, 25, 23);
    let cat = d.catalog();
    let mut rng = Rand::seeded(2);
    let facts = facts_from_table(&d.table, &d.key_col, 0.0, &mut rng);
    let db = NeuralDb::ingest(
        facts.into_iter().map(|f| f.text).collect(),
        &mut ExactExtractor,
    );
    for v in d.distinct_text_values("dept") {
        let sql = run_sql(
            &format!("SELECT COUNT(*) FROM employees WHERE dept = '{v}'"),
            &cat,
        )
        .unwrap();
        let expected = match sql.rows[0][0] {
            lm4db::sql::Value::Int(n) => n as usize,
            _ => unreachable!(),
        };
        assert_eq!(db.count("dept", &v), expected, "dept {v}");
    }
}

#[test]
fn neuraldb_extreme_matches_sql_order_by() {
    let d = make_domain(DomainKind::Employees, 25, 24);
    let cat = d.catalog();
    let mut rng = Rand::seeded(3);
    let facts = facts_from_table(&d.table, &d.key_col, 0.5, &mut rng);
    let db = NeuralDb::ingest(
        facts.into_iter().map(|f| f.text).collect(),
        &mut AllTemplatesExtractor,
    );
    let sql = run_sql(
        "SELECT name FROM employees ORDER BY salary DESC LIMIT 1",
        &cat,
    )
    .unwrap();
    let expected = match &sql.rows[0][0] {
        lm4db::sql::Value::Str(s) => s.clone(),
        _ => unreachable!(),
    };
    // Ties on salary make multiple answers legal; check the value matches.
    let got = db.extreme("salary", true).expect("no extreme");
    let got_val = db.lookup(got, "salary").unwrap();
    let expected_val = db.lookup(&expected, "salary").unwrap();
    assert_eq!(got_val, expected_val);
}
