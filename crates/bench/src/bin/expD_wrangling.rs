//! **Exp D** (§2.5, data wrangling): entity-matching F1 for the fine-tuned
//! LM matcher vs. string-similarity baselines across corruption severity;
//! plus imputation and error-detection accuracy.
//!
//! Expected shape (Ditto / "Can FMs Wrangle Your Data?"): similarity
//! baselines are competitive on light corruption but fall off as pairs get
//! harder; the learned matcher degrades more slowly. Learned imputation
//! beats majority class; dictionary error detection is a strong baseline
//! for typo-style errors.

use lm4db::corpus::Severity;
use lm4db::transformer::ModelConfig;
use lm4db::wrangle::{
    column_pairs, error_dataset, imputation_dataset, jaccard, levenshtein_sim, majority_baseline,
    matching_pairs, name_similarity_baseline, recall_at_budget, serialize_pair_aligned,
    split_pairs, Confusion, CorrelationPredictor, DictionaryDetector, LmErrorDetector, LmImputer,
    LmMatcher, TfIdf, ThresholdMatcher,
};
use lm4db_bench::{pct, print_table};

fn cfg() -> ModelConfig {
    ModelConfig {
        max_seq_len: 128,
        d_model: 32,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        dropout: 0.0,
        vocab_size: 0,
    }
}

/// The matcher needs enough capacity to learn cross-record token
/// comparison (Ditto uses a full pre-trained BERT); this is the largest
/// config that still trains in minutes on a laptop CPU.
fn matcher_cfg() -> ModelConfig {
    ModelConfig {
        max_seq_len: 128,
        d_model: 64,
        n_heads: 4,
        n_layers: 3,
        d_ff: 256,
        dropout: 0.0,
        vocab_size: 0,
    }
}

fn main() {
    // --- entity matching across severities ---
    let mut rows = Vec::new();
    for (sev_name, sev) in [
        ("light", Severity::light()),
        ("medium", Severity::medium()),
        ("heavy", Severity::heavy()),
    ] {
        let pairs = matching_pairs(250, sev, 7);
        let (train, test) = split_pairs(pairs, 0.8);
        let labeled: Vec<(String, String, bool)> = train
            .iter()
            .map(|p| (p.left.clone(), p.right.clone(), p.label))
            .collect();

        let jac = ThresholdMatcher::fit(jaccard, &labeled);
        let lev = ThresholdMatcher::fit(levenshtein_sim, &labeled);
        let tfidf = TfIdf::fit(
            train
                .iter()
                .flat_map(|p| [p.left.as_str(), p.right.as_str()]),
        );
        let tfm = ThresholdMatcher::fit(move |a: &str, b: &str| tfidf.cosine(a, b), &labeled);
        let mut lm = LmMatcher::train(matcher_cfg(), &train, 30, 1e-3, 3);
        let mut lm_aligned = LmMatcher::train_with_serializer(
            matcher_cfg(),
            &train,
            30,
            1e-3,
            3,
            serialize_pair_aligned,
        );

        let eval_thresh = |m: &dyn Fn(&str, &str) -> bool| {
            let mut c = Confusion::default();
            for p in &test {
                c.record(m(&p.left, &p.right), p.label);
            }
            c
        };
        let cj = eval_thresh(&|a, b| jac.matches(a, b));
        let cl = eval_thresh(&|a, b| lev.matches(a, b));
        let ct = eval_thresh(&|a, b| tfm.matches(a, b));
        let cm = lm.evaluate(&test);
        let ca = lm_aligned.evaluate(&test);
        rows.push(vec![
            sev_name.to_string(),
            pct(cj.f1() as f64),
            pct(cl.f1() as f64),
            pct(ct.f1() as f64),
            pct(cm.f1() as f64),
            pct(ca.f1() as f64),
        ]);
    }
    print_table(
        "Exp D — entity matching F1 vs. corruption severity",
        &[
            "severity",
            "jaccard",
            "levenshtein",
            "tf-idf",
            "LM (naive pair)",
            "LM (aligned, Ditto-style)",
        ],
        &rows,
    );

    // --- imputation ---
    let (examples, values) = imputation_dataset(150, 11);
    let cut = 110;
    let (itrain, itest) = (examples[..cut].to_vec(), examples[cut..].to_vec());
    let base = majority_baseline(&itrain, &itest);
    let mut imputer = LmImputer::train(cfg(), &itrain, &values, 20, 5);
    let lm_acc = imputer.accuracy(&itest);
    print_table(
        "Exp D — missing-value imputation accuracy (category from record text)",
        &["method", "accuracy"],
        &[
            vec!["majority class".into(), pct(base as f64)],
            vec!["LM imputer".into(), pct(lm_acc as f64)],
        ],
    );

    // --- error detection ---
    let errors = error_dataset(160, Severity::medium(), 9);
    let (etrain, etest) = (errors[..120].to_vec(), errors[120..].to_vec());
    let clean: Vec<&str> = etrain
        .iter()
        .filter(|e| !e.label)
        .map(|e| e.text.as_str())
        .collect();
    let dict = DictionaryDetector::from_clean(clean.iter().copied());
    let dc = dict.evaluate(&etest);
    let mut lmdet = LmErrorDetector::train(cfg(), &etrain, 20, 13);
    let lc = lmdet.evaluate(&etest);
    print_table(
        "Exp D — error detection",
        &["method", "precision", "recall", "F1"],
        &[
            vec![
                "dictionary".into(),
                pct(dc.precision() as f64),
                pct(dc.recall() as f64),
                pct(dc.f1() as f64),
            ],
            vec![
                "LM detector".into(),
                pct(lc.precision() as f64),
                pct(lc.recall() as f64),
                pct(lc.f1() as f64),
            ],
        ],
    );

    // --- NLP-enhanced profiling: correlation prediction from column names ---
    let ptrain = column_pairs(240, 2);
    let ptest = column_pairs(60, 99);
    let mut pred = CorrelationPredictor::train(
        ModelConfig {
            max_seq_len: 16,
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            d_ff: 128,
            dropout: 0.0,
            vocab_size: 0,
        },
        &ptrain,
        25,
        3,
    );
    let acc = pred.accuracy(&ptest);
    let budget = ptest.iter().filter(|p| p.correlated).count();
    let lm_recall = recall_at_budget(&ptest, |a, b| pred.correlation_probability(a, b), budget);
    let str_recall = recall_at_budget(&ptest, name_similarity_baseline, budget);
    print_table(
        "Exp D — profiling: correlated-column discovery from names",
        &["method", "pair accuracy", "recall@budget"],
        &[
            vec![
                "string similarity".into(),
                "-".into(),
                pct(str_recall as f64),
            ],
            vec![
                "LM name predictor".into(),
                pct(acc as f64),
                pct(lm_recall as f64),
            ],
        ],
    );
}
