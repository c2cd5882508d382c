//! Model checkpointing: serialize a trained model's configuration and
//! parameters to JSON and restore it bit-exactly.
//!
//! JSON keeps the format human-inspectable and dependency-free; at the
//! model sizes this crate targets (thousands to a few million parameters)
//! file sizes stay in the megabytes.

use serde::{Deserialize, Serialize};

use lm4db_tensor::{ParamStore, Tensor};

use crate::bert::BertModel;
use crate::config::ModelConfig;
use crate::gpt::GptModel;

/// A serializable snapshot of one named parameter tensor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamSnapshot {
    /// Parameter name (as registered in the store).
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<usize>,
    /// Row-major data.
    pub data: Vec<f32>,
}

/// A serializable model checkpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Architecture configuration.
    pub config: ModelConfig,
    /// All parameters, in registration order.
    pub params: Vec<ParamSnapshot>,
}

/// Extracts a checkpoint from any parameter store, every tensor row-major
/// whatever order the store holds it in.
pub fn snapshot_store(config: &ModelConfig, store: &ParamStore) -> Checkpoint {
    Checkpoint {
        config: config.clone(),
        params: store
            .to_row_major()
            .iter()
            .map(|(name, t)| ParamSnapshot {
                name: name.to_string(),
                shape: t.shape().to_vec(),
                data: t.data().to_vec(),
            })
            .collect(),
    }
}

/// Restores parameter values into a freshly constructed store, each in the
/// order the store holds it. Names, order, shapes and data lengths must
/// match exactly; nothing is written unless all of them do.
pub fn restore_store(checkpoint: &Checkpoint, store: &mut ParamStore) -> Result<(), String> {
    if store.len() != checkpoint.params.len() {
        return Err(format!(
            "parameter count mismatch: store has {}, checkpoint has {}",
            store.len(),
            checkpoint.params.len()
        ));
    }
    for ((name, t), (i, snap)) in store.iter().zip(checkpoint.params.iter().enumerate()) {
        if snap.name != name {
            return Err(format!(
                "parameter {i} name mismatch: store '{name}' vs checkpoint '{}'",
                snap.name
            ));
        }
        if snap.shape != t.shape() {
            return Err(format!(
                "parameter '{name}' shape mismatch: store {:?} vs checkpoint {:?}",
                t.shape(),
                snap.shape
            ));
        }
        if snap.data.len() != t.len() {
            return Err(format!(
                "parameter '{name}' holds {} values for shape {:?}",
                snap.data.len(),
                snap.shape
            ));
        }
    }
    // Apply after full validation. Ids are assigned densely from 0 in
    // registration order.
    for (i, snap) in checkpoint.params.iter().enumerate() {
        let t = Tensor::new(snap.shape.clone(), snap.data.clone());
        store.set(lm4db_tensor::optim::param_id_for_index(i), t);
    }
    Ok(())
}

impl GptModel {
    /// Serializes the model to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&snapshot_store(self.config(), &self.store))
            .expect("checkpoint serialization cannot fail")
    }

    /// Restores a model from [`GptModel::to_json`] output.
    pub fn from_json(json: &str) -> Result<GptModel, String> {
        let ckpt: Checkpoint =
            serde_json::from_str(json).map_err(|e| format!("bad checkpoint JSON: {e}"))?;
        ckpt.config.check()?;
        let mut model = GptModel::new(ckpt.config.clone(), 0);
        restore_store(&ckpt, &mut model.store)?;
        Ok(model)
    }
}

impl BertModel {
    /// Serializes the encoder to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&snapshot_store(self.config(), self.params()))
            .expect("checkpoint serialization cannot fail")
    }

    /// Restores an encoder from [`BertModel::to_json`] output.
    pub fn from_json(json: &str) -> Result<BertModel, String> {
        let ckpt: Checkpoint =
            serde_json::from_str(json).map_err(|e| format!("bad checkpoint JSON: {e}"))?;
        ckpt.config.check()?;
        let mut model = BertModel::new(ckpt.config.clone(), 0);
        restore_store(&ckpt, model.store_mut())?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::KvCache;
    use lm4db_tokenize::BOS;

    #[test]
    fn roundtrip_preserves_logits_exactly() {
        let mut m = GptModel::new(ModelConfig::test(), 7);
        let mut opt = m.optimizer(3e-3);
        let batch = vec![vec![BOS, 10, 11, 12, 13]];
        for _ in 0..10 {
            m.train_step(&batch, &mut opt);
        }
        let json = m.to_json();
        let restored = GptModel::from_json(&json).unwrap();
        let prefix = vec![BOS, 10, 11];
        assert_eq!(
            m.sequence_logits(&prefix).data(),
            restored.sequence_logits(&prefix).data()
        );
        assert_eq!(
            KvCache::new(&m).feed_all(&m, &prefix),
            KvCache::new(&restored).feed_all(&restored, &prefix)
        );
        assert_eq!(m.num_params(), restored.num_params());
    }

    #[test]
    fn bad_json_is_rejected() {
        assert!(GptModel::from_json("{not json").is_err());
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let m = GptModel::new(ModelConfig::test(), 1);
        let mut ckpt = snapshot_store(m.config(), &m.params());
        ckpt.params.pop();
        let mut fresh = GptModel::new(ModelConfig::test(), 2);
        assert!(restore_store(&ckpt, &mut fresh.store).is_err());
    }

    #[test]
    fn bert_roundtrip_preserves_mlm_predictions() {
        use crate::bert::BertModel;
        use lm4db_tokenize::{CLS, MASK, SEP};
        let mut m = BertModel::new(ModelConfig::test(), 9);
        let mut opt = m.optimizer(2e-3);
        let batch = vec![vec![CLS, 10, 11, 12, SEP]];
        for _ in 0..5 {
            m.mlm_train_step(&batch, &mut opt);
        }
        let json = m.to_json();
        let restored = BertModel::from_json(&json).unwrap();
        let probe = vec![CLS, 10, MASK, 12, SEP];
        assert_eq!(m.predict_masked(&probe), restored.predict_masked(&probe));
    }

    /// FNV-1a over a checkpoint's JSON bytes.
    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// The bytes `to_json` writes, fresh and after three optimizer steps,
    /// pinned to constants: however the model holds its weights in memory,
    /// a checkpoint is the same row-major JSON it always was.
    #[test]
    fn checkpoint_bytes_fingerprint() {
        let mut m = GptModel::new(ModelConfig::test(), 7);
        let fresh = fnv1a(&m.to_json());
        let mut opt = m.optimizer(3e-3);
        let batch = vec![vec![BOS, 10, 11, 12, 13], vec![BOS, 20, 21]];
        for _ in 0..3 {
            m.train_step(&batch, &mut opt);
        }
        let trained = fnv1a(&m.to_json());
        assert_eq!(
            (fresh, trained),
            (0x42c8_d25e_9a82_7e21, 0xbbbf_ed1f_7833_9f7b)
        );
    }

    /// The encoder's twin of [`checkpoint_bytes_fingerprint`]: `to_json`'s
    /// bytes fresh and after three masked-LM steps, and the bits of a
    /// classifier's probabilities after three fine-tuning steps, pinned to
    /// constants — so BERT's training arithmetic cannot move unnoticed
    /// whatever order its weights are held in.
    #[test]
    fn bert_checkpoint_bytes_fingerprint() {
        use crate::bert::{BertClassifier, BertModel};
        use lm4db_tokenize::{CLS, SEP};
        let mut m = BertModel::new(ModelConfig::test(), 9);
        let fresh = fnv1a(&m.to_json());
        let mut opt = m.optimizer(2e-3);
        let batch = vec![vec![CLS, 10, 11, 12, 13, 14, SEP], vec![CLS, 20, 21, SEP]];
        for _ in 0..3 {
            m.mlm_train_step(&batch, &mut opt);
        }
        let trained = fnv1a(&m.to_json());

        let mut clf = BertClassifier::new(m, 3, 5);
        let mut opt = clf.optimizer(2e-3);
        let labels = [2, 0];
        for _ in 0..3 {
            clf.train_step(&batch, &labels, &mut opt);
        }
        let probs: String = clf
            .predict_proba(&batch)
            .iter()
            .flatten()
            .map(|p| format!("{:08x}", p.to_bits()))
            .collect();
        assert_eq!(
            (fresh, trained, fnv1a(&probs)),
            (
                0xf4df_b63e_7ec9_d288,
                0xf066_5c98_ebcb_e70f,
                0xf302_4849_2119_2b7d
            )
        );
    }

    /// Tampered checkpoints of either family come back as `Err`, never a
    /// panic: a parameter one value short, a transposed embedding or
    /// projection shape, and head counts the constructors would reject.
    #[test]
    fn tampered_checkpoints_are_rejected() {
        use crate::bert::BertModel;
        type Tamper = fn(&mut Checkpoint);
        fn transpose(c: &mut Checkpoint, name: &str) {
            let p = c.params.iter_mut().find(|p| p.name == name).unwrap();
            p.shape.reverse();
        }
        let tampers: [(&str, Tamper); 5] = [
            ("short data", |c| {
                c.params[0].data.pop();
            }),
            ("transposed tok_emb", |c| transpose(c, "tok_emb")),
            ("transposed ffn.up.w", |c| transpose(c, "block0.ffn.up.w")),
            ("n_heads 3 of d_model 16", |c| c.config.n_heads = 3),
            ("n_heads 0", |c| c.config.n_heads = 0),
        ];
        let gpt = GptModel::new(ModelConfig::test(), 1).to_json();
        let bert = BertModel::new(ModelConfig::test(), 1).to_json();
        for (what, tamper) in tampers {
            for (family, json) in [("gpt", &gpt), ("bert", &bert)] {
                let mut ckpt: Checkpoint = serde_json::from_str(json).unwrap();
                tamper(&mut ckpt);
                let json = serde_json::to_string(&ckpt).unwrap();
                let got = match family {
                    "gpt" => GptModel::from_json(&json).map(drop),
                    _ => BertModel::from_json(&json).map(drop),
                };
                assert!(got.is_err(), "{family}: {what} was accepted");
            }
        }
    }

    #[test]
    fn checkpoint_preserves_config() {
        let m = GptModel::new(ModelConfig::tiny(100), 3);
        let restored = GptModel::from_json(&m.to_json()).unwrap();
        assert_eq!(restored.config(), m.config());
    }
}
