//! The neural semantic parser: a GPT-style causal LM fine-tuned on
//! `question → SQL` pairs, decoded with or without the grammar constraint.
//! The fine-tune → prompt → beam → read-back path is [`TrieLm`], which
//! CodexDB's program synthesizer runs on too.
//!
//! The constrained mode is the PICARD recipe (Scholak et al., EMNLP 2021):
//! beam search in which, at every step, the tokens that would leave the
//! schema-specialized [`SqlTrie`] are vetoed — so the parser can only emit
//! executable SQL.

use std::collections::HashMap;

use lm4db_serve::{Engine, Request};
use lm4db_tensor::Rand;
use lm4db_tokenize::{vocab::SPECIAL_TOKENS, Bpe, Tokenizer, BOS, EOS};
use lm4db_transformer::{
    sample, ContextError, GptModel, Hypothesis, IncrementalSession, ModelConfig, SampleOptions,
    TokenMask,
};

use crate::trie::SqlTrie;
use crate::workload::Example;

/// Splits generated BPE ids into complete word units plus an optional
/// trailing partial word.
pub fn decode_units(bpe: &Bpe, ids: &[usize]) -> (Vec<String>, Option<String>) {
    let mut units = Vec::new();
    let mut current = String::new();
    for &id in ids {
        if id < SPECIAL_TOKENS.len() {
            continue;
        }
        let tok = bpe.vocab().token(id);
        match tok.strip_suffix(crate::EOW) {
            Some(stem) => {
                current.push_str(stem);
                units.push(std::mem::take(&mut current));
            }
            None => current.push_str(tok),
        }
    }
    let partial = if current.is_empty() {
        None
    } else {
        Some(current)
    };
    (units, partial)
}

/// The token spellings of every word on a trie's edges, built once per
/// tokenizer and trie so that [`TrieConstraint`] never scans the
/// vocabulary.
pub struct Spellings {
    /// Per word `w`, indexed by a char-boundary byte offset `i`: the ids
    /// that continue the partial word `w[..i]` towards `w`.
    by_word: HashMap<String, Vec<Vec<usize>>>,
}

impl Spellings {
    /// Spells every word of `trie` with the tokens of `bpe`.
    pub fn new(bpe: &Bpe, trie: &SqlTrie) -> Self {
        let by_word = trie
            .words()
            .into_iter()
            .map(|w| (w.to_string(), spell(bpe, w)))
            .collect();
        Spellings { by_word }
    }

    /// The ids that continue the partial word `word[..at]` towards `word`.
    fn after(&self, word: &str, at: usize) -> &[usize] {
        &self
            .by_word
            .get(word)
            .expect("spellings are built from the constraint's own trie")[at]
    }
}

/// For every char boundary `i` of `word`, the tokens that may follow the
/// partial word `word[..i]`: the end-of-word token `word[i..]`, and each
/// token `word[i..j]` (`i < j < len`) whose remainder `word[j..]` can still
/// be spelled with an end-of-word token last — otherwise a beam would be
/// admitted into a dead end (e.g. the token `a` towards `avg` under a
/// tokenizer that has no `v`).
fn spell(bpe: &Bpe, word: &str) -> Vec<Vec<usize>> {
    let vocab = bpe.vocab();
    let n = word.len();
    let eow = |piece: &str| vocab.id(&format!("{piece}{}", crate::EOW));
    let cuts: Vec<usize> = (0..=n).filter(|&i| word.is_char_boundary(i)).collect();
    // finishable[i]: `word[i..]` splits into tokens, the last one
    // end-of-word. One right-to-left pass covers every suffix.
    let mut finishable = vec![false; n + 1];
    for (k, &i) in cuts.iter().enumerate().rev().skip(1) {
        finishable[i] = cuts[k + 1..].iter().any(|&j| {
            if j == n {
                eow(&word[i..]).is_some()
            } else {
                finishable[j] && vocab.id(&word[i..j]).is_some()
            }
        });
    }
    let mut spellings = vec![Vec::new(); n + 1];
    for (k, &i) in cuts.iter().enumerate() {
        let pieces = cuts[k + 1..]
            .iter()
            .filter(|&&j| j < n && finishable[j])
            .filter_map(|&j| vocab.id(&word[i..j]));
        spellings[i] = eow(&word[i..]).into_iter().chain(pieces).collect();
    }
    spellings
}

/// The PICARD-style grammar mask: after a decoded prefix, exactly the
/// tokens that keep the generated text on a path of the word trie.
pub struct TrieConstraint<'a> {
    bpe: &'a Bpe,
    trie: &'a SqlTrie,
    spellings: &'a Spellings,
    /// Length of the prompt prefix; only tokens after it are generated SQL.
    prompt_len: usize,
}

impl<'a> TrieConstraint<'a> {
    /// Builds a constraint over any word trie (the SQL trie, or the
    /// pipeline-DSL trie of CodexDB's synthesizer). `spellings` must be
    /// [`Spellings::new`] of the same `bpe` and `trie`.
    pub fn new(
        bpe: &'a Bpe,
        trie: &'a SqlTrie,
        spellings: &'a Spellings,
        prompt_len: usize,
    ) -> Self {
        TrieConstraint {
            bpe,
            trie,
            spellings,
            prompt_len,
        }
    }
}

/// One vocabulary-wide allow table per decode step. The trie state
/// (`decode_units` of the generated prefix, the node it reaches) is
/// derived once per step, and the allowed tokens are read off the
/// precomputed [`Spellings`] of the node's child words that continue the
/// partial word — a step costs the frontier's spellings, not the
/// vocabulary, which is what makes grammar-constrained beam search
/// cheap enough to run on every hypothesis inside the engine. The tests
/// check it token by token against a per-token oracle that decodes every
/// candidate from scratch.
impl TokenMask for TrieConstraint<'_> {
    fn fill(&self, prefix: &[usize], mask: &mut [bool]) {
        let generated = &prefix[self.prompt_len.min(prefix.len())..];
        let (units, partial) = decode_units(self.bpe, generated);
        if partial.is_none() && self.trie.is_complete(&units) {
            mask[EOS] = true;
        }
        let p = partial.as_deref().unwrap_or("");
        for word in self.trie.children(&units).filter(|w| w.starts_with(p)) {
            for &id in self.spellings.after(word, p.len()) {
                mask[id] = true;
            }
        }
    }
}

/// The generator behind both Codex-era front-ends: a GPT fine-tuned on
/// `tag : input tag : output` lines, beam-decoded through the engine with
/// or without the word-trie mask, and read back as word units. The
/// text-to-SQL [`SemanticParser`] (tags `q` / `a`) and CodexDB's program
/// synthesizer (`i` / `p`) are front-ends over it.
pub struct TrieLm {
    gpt: GptModel,
    bpe: Bpe,
    trie: SqlTrie,
    spellings: Spellings,
    tags: (&'static str, &'static str),
}

impl TrieLm {
    /// Trains a BPE of `bpe_vocab` tokens on `texts` (the serialized pairs,
    /// then every trie entry) and a GPT from `seed` over its vocabulary.
    pub fn new(
        cfg: ModelConfig,
        tags: (&'static str, &'static str),
        texts: &[String],
        trie: SqlTrie,
        bpe_vocab: usize,
        seed: u64,
    ) -> Self {
        let bpe = Bpe::train(texts.iter().map(String::as_str), bpe_vocab);
        let vocab_size = bpe.vocab().len();
        let gpt = GptModel::new(ModelConfig { vocab_size, ..cfg }, seed);
        let spellings = Spellings::new(&bpe, &trie);
        TrieLm {
            gpt,
            bpe,
            trie,
            spellings,
            tags,
        }
    }

    /// One fine-tuning line: `{in} : {input} {out} : {output}`.
    pub fn line(tags: (&str, &str), input: &str, output: &str) -> String {
        format!("{} : {input} {} : {output}", tags.0, tags.1)
    }

    /// Fine-tunes on `lines` for `epochs` passes of `batch_size`-line
    /// steps; returns the mean loss of the final epoch. A line longer than
    /// the window is skipped (a cut would drop its output) and counted
    /// under `text2sql/fit_lines_skipped`.
    pub fn fit(&mut self, lines: &[String], epochs: usize, batch_size: usize, lr: f32) -> f32 {
        let cfg = self.gpt.config();
        let (encoded, skipped): (Vec<_>, Vec<_>) = lines
            .iter()
            .map(|l| self.bpe.encode_causal(l))
            .partition(|ids| cfg.room(ids.len()).is_ok());
        lm4db_obs::counter_add("text2sql/fit_lines_skipped", skipped.len() as u64);
        let mut opt = self.gpt.optimizer(lr);
        let mut last = 0.0;
        for _ in 0..epochs {
            let mut losses = Vec::new();
            for chunk in encoded.chunks(batch_size.max(1)) {
                losses.push(self.gpt.train_step(chunk, &mut opt));
            }
            last = losses.iter().sum::<f32>() / losses.len().max(1) as f32;
        }
        last
    }

    /// `[BOS]` and the prompt `{in} : {input} {out} :`.
    pub fn prompt_ids(&self, input: &str) -> Vec<usize> {
        let text = format!("{} : {input} {} :", self.tags.0, self.tags.1);
        [vec![BOS], self.bpe.encode(&text)].concat()
    }

    /// Beam-decodes every prompt through one engine, `width` hypotheses of
    /// at most `max_new` tokens each, under the trie mask when
    /// `constrained`. Returns each prompt's hypotheses, best first (or why
    /// the window cannot hold it), and the engine's scheduler steps.
    pub fn beams(
        &self,
        prompts: &[Vec<usize>],
        width: usize,
        max_new: usize,
        constrained: bool,
    ) -> (Vec<Result<Vec<Hypothesis>, ContextError>>, u64) {
        let masks: Vec<TrieConstraint> = prompts
            .iter()
            .map(|p| TrieConstraint::new(&self.bpe, &self.trie, &self.spellings, p.len()))
            .collect();
        let mut engine = Engine::new(&self.gpt);
        let reqs = prompts.iter().zip(&masks).map(|(p, mask)| Request {
            mask: constrained.then_some(mask as &dyn TokenMask),
            ..Request::beam(p.clone(), width, max_new, EOS)
        });
        // The engine fails a prompt with no room at admission; the same
        // rule names the reason here.
        let cfg = self.gpt.config();
        let served = engine.generate_batch(reqs.collect()).into_iter();
        let hyps = served
            .zip(prompts)
            .map(|(r, p)| cfg.room(p.len()).map(|_| r.hyps));
        (hyps.collect(), engine.stats().steps)
    }

    /// [`TrieLm::read`] of the best of `hyps`: the first finished one,
    /// else the highest-scoring. `None` when there is no hypothesis.
    pub fn best(&self, hyps: &[Hypothesis], prompt_len: usize) -> Option<(String, Option<&str>)> {
        let best = hyps.iter().find(|h| h.finished).or_else(|| hyps.first())?;
        Some(self.read(&best.ids, prompt_len))
    }

    /// Reads the tokens after the prompt back: the raw text (word units
    /// and any trailing partial word, joined with spaces) and the trie
    /// entry the units spell, looked up only when no partial word trails.
    pub fn read(&self, ids: &[usize], prompt_len: usize) -> (String, Option<&str>) {
        let (mut units, partial) = decode_units(&self.bpe, &ids[prompt_len.min(ids.len())..]);
        let entry = self.trie.lookup(&units).filter(|_| partial.is_none());
        units.extend(partial);
        (units.join(" "), entry)
    }

    /// Samples a continuation of `prompt` from the fine-tuned model with
    /// the reference sampler over a KV-cached session, unmasked (read it
    /// back from offset 0), its budget capped by [`ModelConfig::room`].
    pub fn sample(
        &self,
        prompt: &[usize],
        max_new: usize,
        opts: &SampleOptions,
        rng: &mut Rand,
    ) -> Result<Vec<usize>, ContextError> {
        let max_new = max_new.min(self.gpt.config().room(prompt.len())?);
        let mut session = IncrementalSession::new(&self.gpt);
        Ok(sample(&mut session, prompt, max_new, EOS, opts, None, rng))
    }
}

/// Decoding mode for [`SemanticParser::predict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeMode {
    /// Grammar-constrained beam search (PICARD).
    Constrained,
    /// Plain beam search; output may be invalid SQL.
    Unconstrained,
}

/// A prediction: the recovered canonical SQL (when the output walks the
/// trie) and the raw decoded text either way.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Canonical SQL if the decoded units form a known query.
    pub sql: Option<String>,
    /// Raw decoded word units joined with spaces.
    pub raw: String,
    /// Why nothing was decoded: the question's prompt does not fit the
    /// model's window.
    pub refused: Option<ContextError>,
}

/// GPT fine-tuned for text-to-SQL over one domain: a [`TrieLm`] with the
/// `q` / `a` tags, which it dereferences to, plus the decode settings.
pub struct SemanticParser {
    lm: TrieLm,
    beam_width: usize,
    max_new: usize,
}

impl std::ops::Deref for SemanticParser {
    type Target = TrieLm;
    fn deref(&self) -> &TrieLm {
        &self.lm
    }
}

impl SemanticParser {
    const TAGS: (&'static str, &'static str) = ("q", "a");

    /// Builds tokenizer + model from training examples and the candidate
    /// trie; the BPE also sees every candidate query, lower-cased.
    pub fn new(
        cfg: ModelConfig,
        train_examples: &[Example],
        trie: SqlTrie,
        seed: u64,
        bpe_vocab: usize,
    ) -> Self {
        let mut texts: Vec<String> = train_examples.iter().map(Self::serialize).collect();
        texts.extend(trie.all_queries().iter().map(|sql| sql.to_lowercase()));
        SemanticParser {
            lm: TrieLm::new(cfg, Self::TAGS, &texts, trie, bpe_vocab, seed),
            beam_width: 3,
            max_new: 48,
        }
    }

    /// Serializes a training pair into the fine-tuning text format.
    pub fn serialize(ex: &Example) -> String {
        TrieLm::line(Self::TAGS, &ex.question, &ex.sql.to_lowercase())
    }

    /// Sets the beam width used at decode time.
    pub fn set_beam_width(&mut self, width: usize) {
        self.beam_width = width.max(1);
    }

    /// Fine-tunes on the training pairs for `epochs` passes; returns the
    /// mean loss of the final epoch.
    pub fn fit(&mut self, examples: &[Example], epochs: usize, batch_size: usize, lr: f32) -> f32 {
        let lines: Vec<String> = examples.iter().map(Self::serialize).collect();
        self.lm.fit(&lines, epochs, batch_size, lr)
    }

    /// Translates a question into SQL.
    pub fn predict(&self, question: &str, mode: DecodeMode) -> Prediction {
        self.predict_batch(&[question], mode)
            .pop()
            .expect("one question in, one prediction out")
    }

    /// Translates a batch of questions in one pass through the batched
    /// inference engine: prompts decode concurrently, and their shared
    /// `q :` / `a :` scaffold prefills once via the engine's prefix cache.
    pub fn predict_batch(&self, questions: &[&str], mode: DecodeMode) -> Vec<Prediction> {
        let _span = lm4db_obs::span("text2sql_predict");
        lm4db_obs::counter_add("text2sql/questions", questions.len() as u64);
        // At LM4DB_TRACE=2 this marks the batch boundary on the timeline;
        // the engine's submit/admit/retire instants attribute the beam
        // work inside it to individual requests.
        lm4db_obs::instant_arg("text2sql/batch", questions.len() as u64);
        let prompts: Vec<Vec<usize>> = questions.iter().map(|q| self.lm.prompt_ids(q)).collect();
        let constrained = mode == DecodeMode::Constrained;
        let (width, max_new) = (self.beam_width, self.max_new);
        let (hyps, steps) = self.lm.beams(&prompts, width, max_new, constrained);
        // The engine's scheduler steps are this pipeline's beam steps.
        lm4db_obs::counter_add("text2sql/beam_steps", steps);
        let predictions: Vec<Prediction> = hyps
            .iter()
            .zip(&prompts)
            .map(|(hyps, prompt)| self.prediction_from_hyps(hyps, prompt.len()))
            .collect();
        lm4db_obs::counter_add(
            "text2sql/sql_resolved",
            predictions.iter().filter(|p| p.sql.is_some()).count() as u64,
        );
        predictions
    }

    fn prediction_from_hyps(
        &self,
        hyps: &Result<Vec<Hypothesis>, ContextError>,
        prompt_len: usize,
    ) -> Prediction {
        let best = hyps.as_ref().ok().and_then(|h| self.lm.best(h, prompt_len));
        let (raw, sql) = best.unwrap_or_default();
        Prediction {
            sql: sql.map(str::to_string),
            raw,
            refused: hyps.as_ref().err().copied(),
        }
    }
}

#[cfg(test)]
mod window;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::generate;
    use lm4db_codegen::{enumerate_programs, generate_tasks, Synthesizer};
    use lm4db_corpus::{make_domain, DomainKind};
    use lm4db_sql::run_sql;
    use lm4db_transformer::{beam, IncrementalSession};

    fn setup(n_train: usize) -> (lm4db_corpus::Domain, SemanticParser, Vec<Example>) {
        let d = make_domain(DomainKind::Employees, 20, 7);
        let trie = SqlTrie::for_domain(&d);
        let train = generate(&d, n_train, 1);
        let cfg = ModelConfig {
            max_seq_len: 96,
            ..ModelConfig::tiny(0)
        };
        let parser = SemanticParser::new(cfg, &train, trie, 5, 600);
        (d, parser, train)
    }

    /// True when `suffix` can be spelled by vocabulary tokens such that the
    /// word ends with an end-of-word token — i.e. a partially decoded unit
    /// can actually be finished. Dynamic program over byte positions of
    /// `suffix`, run afresh for every suffix.
    fn suffix_completable(bpe: &Bpe, suffix: &str) -> bool {
        let n = suffix.len();
        if n == 0 {
            return false;
        }
        // ok[i]: suffix[i..] splits into vocab tokens with the last one EOW.
        let mut ok = vec![false; n + 1];
        for i in (0..n).rev() {
            if !suffix.is_char_boundary(i) {
                continue;
            }
            for j in (i + 1)..=n {
                if !suffix.is_char_boundary(j) {
                    continue;
                }
                let piece = &suffix[i..j];
                let fits = if j == n {
                    bpe.vocab().id(&format!("{piece}{}", crate::EOW)).is_some()
                } else {
                    ok[j] && bpe.vocab().id(piece).is_some()
                };
                if fits {
                    ok[i] = true;
                    break;
                }
            }
        }
        ok[0]
    }

    /// The per-token oracle `fill` is checked against: may `token` follow
    /// `prefix`? It decodes the generated text with the candidate appended
    /// and asks the trie, from scratch for every candidate.
    fn allowed(c: &TrieConstraint, prefix: &[usize], token: usize) -> bool {
        let generated = &prefix[c.prompt_len.min(prefix.len())..];
        if token == EOS {
            let (units, partial) = decode_units(c.bpe, generated);
            return partial.is_none() && c.trie.is_complete(&units);
        }
        if token < SPECIAL_TOKENS.len() {
            return false;
        }
        let mut ids = generated.to_vec();
        ids.push(token);
        let (units, partial) = decode_units(c.bpe, &ids);
        match partial.as_deref() {
            None => c.trie.is_valid_prefix(&units, None),
            // A partial word must not only prefix some next unit — the
            // remainder must be spellable with vocab tokens, or the beam
            // would be admitted into a dead end it can never complete
            // (e.g. a bare ">" token when only "></w>" finishes the word).
            Some(p) => c.trie.next_words(&units).iter().any(|w| {
                w.len() > p.len() && w.starts_with(p) && suffix_completable(c.bpe, &w[p.len()..])
            }),
        }
    }

    #[test]
    fn decode_units_splits_words_and_partials() {
        let bpe = Bpe::train(["select name from employees"], 300);
        let ids = bpe.encode("select name");
        let (units, partial) = decode_units(&bpe, &ids);
        assert_eq!(units, vec!["select", "name"]);
        assert_eq!(partial, None);
        // Drop the last id to force a partial word (if multi-token).
        let ids_name = bpe.encode("employees");
        if ids_name.len() > 1 {
            let (_, partial) = decode_units(&bpe, &ids_name[..ids_name.len() - 1]);
            assert!(partial.is_some());
        }
    }

    #[test]
    fn constraint_only_allows_trie_paths() {
        let (_, parser, _) = setup(8);
        let prompt = parser.prompt_ids("show the name of all employees");
        let constraint =
            TrieConstraint::new(&parser.bpe, &parser.trie, &parser.spellings, prompt.len());
        let vocab = parser.bpe.vocab();
        let mut mask = vec![false; vocab.len()];
        constraint.fill(&prompt, &mut mask);
        // From the empty generation, the only valid first word is "select";
        // any token starting a different word must be rejected.
        let allowed: Vec<usize> = (SPECIAL_TOKENS.len()..vocab.len())
            .filter(|&id| mask[id])
            .collect();
        for &id in &allowed {
            let tok = vocab.token(id).trim_end_matches(crate::EOW).to_string();
            assert!(
                "select".starts_with(&tok),
                "allowed non-select start: {tok}"
            );
        }
        assert!(!allowed.is_empty(), "constraint rejected everything");
        // EOS is not allowed at the very start.
        assert!(!mask[EOS]);
    }

    #[test]
    fn token_mask_agrees_with_constraint_oracle_token_by_token() {
        let (_, parser, _) = setup(8);
        let prompt = parser.prompt_ids("show the name of all employees");
        let constraint =
            TrieConstraint::new(&parser.bpe, &parser.trie, &parser.spellings, prompt.len());
        let vocab_len = parser.bpe.vocab().len();
        // Walk a constrained decode: at every prefix along the way, the
        // one-shot mask and the per-token oracle must agree on the entire
        // vocabulary.
        let mut prefix = prompt.clone();
        for _step in 0..10 {
            let mut mask = vec![false; vocab_len];
            constraint.fill(&prefix, &mut mask);
            let mut next = None;
            for (id, &m) in mask.iter().enumerate() {
                assert_eq!(
                    m,
                    allowed(&constraint, &prefix, id),
                    "mask and oracle disagree on token {id} ({:?}) after {:?}",
                    parser.bpe.vocab().token(id),
                    &prefix[prompt.len()..]
                );
                if m && id != EOS && next.is_none() {
                    next = Some(id);
                }
            }
            match next {
                Some(id) => prefix.push(id),
                None => break,
            }
        }
        assert!(prefix.len() > prompt.len(), "walk never advanced");
    }

    /// The differential for the mask: random constrained walks, run to
    /// completion, under both grammars the applications decode with — the
    /// text-to-SQL trie and codegen's program trie, each spelled by a small
    /// tokenizer (words in many pieces), by its application's own size, and
    /// by a small tokenizer that never saw the letters `v` and `x`: that one
    /// cannot finish `avg` or `max`, so pieces that lead into them must be
    /// vetoed and a walk may reach a dead end. At every step `fill` must
    /// equal the oracle on every vocabulary id and allow no special token
    /// but EOS; the walk picks a random allowed token and ends on EOS at a
    /// stored query. `PROPTEST_CASES` walks per grammar from a fixed seed.
    #[test]
    fn fill_matches_the_oracle_on_random_walks_over_both_grammars() {
        let d = make_domain(DomainKind::Employees, 20, 7);
        let sql = SqlTrie::for_domain(&d);
        let mut sql_texts: Vec<String> = generate(&d, 16, 1)
            .iter()
            .map(SemanticParser::serialize)
            .collect();
        sql_texts.extend(sql.all_queries().iter().map(|q| q.to_lowercase()));
        let programs = enumerate_programs(&d);
        let mut program_trie = SqlTrie::default();
        for p in &programs {
            program_trie.insert(p);
        }
        let mut program_texts: Vec<String> = generate_tasks(&d, 18, 1)
            .iter()
            .map(Synthesizer::serialize)
            .collect();
        program_texts.extend(programs);
        let grammars = [
            (&sql, &sql_texts, 300, false),
            (&sql, &sql_texts, 600, false),
            (&sql, &sql_texts, 300, true),
            (&program_trie, &program_texts, 300, false),
            (&program_trie, &program_texts, 700, false),
            (&program_trie, &program_texts, 300, true),
        ]
        .map(|(trie, texts, size, blind)| {
            let texts: Vec<String> = if blind {
                texts.iter().map(|t| t.replace(['v', 'x'], "")).collect()
            } else {
                texts.clone()
            };
            let bpe = Bpe::train(texts.iter().map(String::as_str), size);
            let spellings = Spellings::new(&bpe, trie);
            (trie, bpe, spellings, blind)
        });

        let mut rng = proptest::TestRng::for_test("parser::fill_matches_the_oracle");
        for case in 0..proptest::cases() {
            for (g, (trie, bpe, spellings, blind)) in grammars.iter().enumerate() {
                let vocab = bpe.vocab();
                // Only what follows the prompt is decoded, whatever it holds.
                let mut prompt = vec![BOS];
                for _ in 0..rng.below(4) {
                    let ordinary = (vocab.len() - SPECIAL_TOKENS.len()) as u64;
                    prompt.push(SPECIAL_TOKENS.len() + rng.below(ordinary) as usize);
                }
                let c = TrieConstraint::new(bpe, trie, spellings, prompt.len());
                let mut prefix = prompt.clone();
                loop {
                    let walk = || decode_units(bpe, &prefix[prompt.len()..]);
                    let mut mask = vec![false; vocab.len()];
                    c.fill(&prefix, &mut mask);
                    for (id, &m) in mask.iter().enumerate() {
                        assert_eq!(
                            m,
                            allowed(&c, &prefix, id),
                            "case {case}, grammar {g}: mask and oracle disagree on token {id} \
                             ({:?}) after {:?}",
                            vocab.token(id),
                            walk()
                        );
                    }
                    let ok: Vec<usize> = (0..vocab.len()).filter(|&id| mask[id]).collect();
                    assert!(
                        ok.iter().all(|&id| id == EOS || !vocab.is_special(id)),
                        "case {case}, grammar {g}: a special token allowed after {:?}: {ok:?}",
                        walk()
                    );
                    if ok.is_empty() {
                        assert!(
                            *blind,
                            "case {case}, grammar {g}: dead end after {:?}",
                            walk()
                        );
                        break;
                    }
                    let next = ok[rng.below(ok.len() as u64) as usize];
                    if next == EOS {
                        let (units, partial) = walk();
                        assert!(partial.is_none() && trie.lookup(&units).is_some());
                        break;
                    }
                    prefix.push(next);
                }
            }
        }
    }

    #[test]
    fn reference_beam_matches_engine_beam_under_the_trie_mask() {
        let (_, mut parser, train) = setup(16);
        parser.fit(&train, 4, 4, 3e-3);
        for q in [
            "show the name of all employees",
            "how many employees have dept sales",
            "which employee has the highest salary",
        ] {
            let prompt = parser.prompt_ids(q);
            let mask =
                TrieConstraint::new(&parser.bpe, &parser.trie, &parser.spellings, prompt.len());
            let (width, max_new) = (parser.beam_width, parser.max_new);
            // The reference decodes over a KV-cached session, the engine's
            // float path.
            let mut session = IncrementalSession::new(&parser.gpt);
            let want = beam(&mut session, &prompt, width, max_new, EOS, Some(&mask));
            let got = Engine::new(&parser.gpt).beam(&prompt, width, max_new, EOS, Some(&mask));
            assert_eq!(got.len(), want.len(), "{q}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.ids, w.ids, "{q}");
                assert_eq!(g.finished, w.finished, "{q}");
                assert_eq!(g.log_prob.to_bits(), w.log_prob.to_bits(), "{q}");
            }
            let best = parser.prediction_from_hyps(&Ok(got), prompt.len());
            assert!(
                best.sql.is_some(),
                "{q}: masked beam left the trie: {}",
                best.raw
            );
        }
    }

    #[test]
    fn constrained_predictions_always_execute() {
        // Even an UNTRAINED model must emit valid SQL under the constraint.
        let (d, parser, _) = setup(8);
        let cat = d.catalog();
        for q in [
            "show the name of all employees",
            "how many employees have dept sales",
            "which employee has the highest salary",
        ] {
            let pred = parser.predict(q, DecodeMode::Constrained);
            let sql = pred.sql.expect("constrained decode must finish");
            assert!(
                run_sql(&sql, &cat).is_ok(),
                "constrained output failed to execute: {sql}"
            );
        }
    }

    #[test]
    fn training_teaches_the_easy_template() {
        let (d, mut parser, _) = setup(40);
        // Heavy repetition of one easy example.
        let ex = Example {
            question: "show the name of all employees".into(),
            sql: "SELECT name FROM employees".into(),
            tier: crate::workload::Tier::Easy,
            domain: d.name.clone(),
        };
        let train: Vec<Example> = std::iter::repeat_n(ex.clone(), 8).collect();
        parser.fit(&train, 30, 4, 3e-3);
        let pred = parser.predict(&ex.question, DecodeMode::Constrained);
        assert_eq!(pred.sql.as_deref(), Some("SELECT name FROM employees"));
    }

    #[test]
    fn fit_reduces_loss() {
        let (_, mut parser, train) = setup(16);
        let first = parser.fit(&train, 1, 4, 3e-3);
        let later = parser.fit(&train, 10, 4, 3e-3);
        assert!(later < first, "loss did not drop: {first} -> {later}");
    }

    #[test]
    fn fit_skips_a_line_past_the_window_instead_of_cutting_it() {
        let (_, mut with_long, train) = setup(4);
        let (_, mut without, _) = setup(4);
        let short = SemanticParser::serialize(&train[0]);
        let long = TrieLm::line(SemanticParser::TAGS, &"name ".repeat(120), "select 1");
        assert!(with_long.bpe.encode_causal(&long).len() > 96);
        let a = with_long.lm.fit(&[long.clone(), short.clone()], 1, 2, 1e-2);
        let b = without.lm.fit(&[short], 1, 2, 1e-2);
        assert_eq!(a.to_bits(), b.to_bits());
        let probe = with_long.prompt_ids("show the name of all employees");
        assert_eq!(
            with_long.gpt.sequence_logits(&probe).data(),
            without.gpt.sequence_logits(&probe).data()
        );
        assert_eq!(with_long.lm.fit(&[long], 1, 2, 1e-2), 0.0);
    }

    #[test]
    fn a_question_past_the_window_is_refused_with_the_reason() {
        let (_, parser, _) = setup(4);
        let long = "show the name of all employees ".repeat(40);
        for mode in [DecodeMode::Constrained, DecodeMode::Unconstrained] {
            let preds = parser.predict_batch(&[&long, "show the name of all employees"], mode);
            let len = parser.prompt_ids(&long).len();
            let want = ContextError::TooLong {
                len,
                max_seq_len: 96,
            };
            assert_eq!(preds[0].refused, Some(want));
            assert_eq!((preds[0].sql.as_deref(), preds[0].raw.as_str()), (None, ""));
            assert_eq!(preds[1].refused, None);
            assert!(!preds[1].raw.is_empty());
        }
    }
}
