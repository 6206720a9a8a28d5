//! A `CEDARCKP` checkpoint survives both of its round trips: the codec
//! (`Checkpoint::encode` then `decode` is the identity) and the disk
//! (`checkpoint::store` then `load` gives back the newest generation).

use cedar::distrib::{ContinuousDist, LogNormal};
use cedar::estimate::{DurationEstimator, EmpiricalEstimator, Model};
use cedar::runtime::checkpoint::{self, FILE_NAME, MAGIC, PREV_FILE_NAME};
use cedar::runtime::{Checkpoint, StageCheckpoint};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A two-stage checkpoint whose statistics come from an estimator fed
/// real draws, Kahan compensation terms included.
fn learned(epoch: u64) -> Checkpoint {
    let mut rng = StdRng::seed_from_u64(epoch);
    let mut stage = |dist: LogNormal, fanout, fitted, censored| {
        let mut est = EmpiricalEstimator::new(Model::LogNormal);
        for d in dist.sample_vec(&mut rng, 500) {
            est.observe(d);
        }
        StageCheckpoint {
            fanout,
            fitted,
            stats: est.stats(),
            censored,
        }
    };
    let stages = vec![
        stage(LogNormal::new(1.0, 0.6).unwrap(), 8, Some((1.02, 0.59)), 17),
        stage(LogNormal::new(1.0, 0.4).unwrap(), 4, None, 0),
    ];
    Checkpoint {
        epoch,
        completed: 20 * epoch,
        refits: epoch,
        written_unix_ms: 1_760_000_000_000 + epoch,
        stages,
    }
}

#[test]
fn encode_then_decode_is_the_identity() {
    let ckpt = learned(3);
    let bytes = ckpt.encode();
    assert_eq!(&bytes[..MAGIC.len()], MAGIC);
    assert_eq!(Checkpoint::decode(&bytes), Ok(ckpt));
}

#[test]
fn store_then_load_returns_the_newest_generation() {
    let dir = std::env::temp_dir().join(format!("cedar-ckpt-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (older, newer) = (learned(3), learned(4));
    checkpoint::store(&dir, &older).unwrap();
    let first = checkpoint::load(&dir);
    assert!(first.rejected.is_empty(), "{:?}", first.rejected);
    assert_eq!(first.checkpoint.as_ref(), Some(&older));

    // A second store rotates the first aside; load reads the newest.
    checkpoint::store(&dir, &newer).unwrap();
    let second = checkpoint::load(&dir);
    assert!(second.rejected.is_empty(), "{:?}", second.rejected);
    assert_eq!(second.checkpoint.as_ref(), Some(&newer));
    let prev = std::fs::read(dir.join(PREV_FILE_NAME)).unwrap();
    assert_eq!(Checkpoint::decode(&prev), Ok(older));
    assert!(dir.join(FILE_NAME).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
