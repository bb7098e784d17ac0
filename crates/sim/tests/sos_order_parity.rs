//! The simulator steps interpreted entities with the hash-consed engine
//! (`semantics::backend`), and its seeded move draw picks by index into
//! the offer row. `semantics::sos` is the reference the engine is held
//! to: along seeded random walks over every derived entity of the
//! corpus, both must offer the same rows — same labels, same order, same
//! occurrence numbers — so a seed draws the same move from either.

use protogen::Pipeline;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semantics::engine::Engine;
use semantics::sos::transitions;
use semantics::term::{Env, Label};

const SEEDS: u64 = 40;
const STEPS: usize = 300;

#[test]
fn engine_rows_match_sos_rows_in_order() {
    let dir = format!("{}/../../specs", env!("CARGO_MANIFEST_DIR"));
    let mut specs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "lotos"))
        .collect();
    specs.sort();
    assert_eq!(specs.len(), 9, "corpus changed size");
    let mut steps = 0;
    for path in specs {
        let derived = Pipeline::load_file(path.to_str().unwrap())
            .unwrap()
            .check()
            .unwrap()
            .derive()
            .unwrap();
        for (place, spec) in &derived.derivation().entities {
            for seed in 0..SEEDS {
                let ctx = format!("{} place {place} seed {seed}", path.display());
                let env = Env::new(spec.clone());
                let engine = Engine::new(spec.clone());
                let mut rng = StdRng::seed_from_u64(seed);
                let (mut rc, mut id) = (env.root(), engine.root());
                for step in 0..STEPS {
                    let want = transitions(&env, &rc);
                    let got = engine.transitions(id);
                    let want_labels: Vec<&Label> = want.iter().map(|(l, _)| l).collect();
                    let got_labels: Vec<&Label> = got.iter().map(|(l, _)| l).collect();
                    assert_eq!(got_labels, want_labels, "{ctx} step {step}");
                    if want.is_empty() {
                        break;
                    }
                    let k = rng.gen_range(0..want.len());
                    rc = want[k].1.clone();
                    id = got[k].1;
                    steps += 1;
                }
            }
        }
    }
    assert!(
        steps > 10_000,
        "walks too short to mean anything: {steps} steps"
    );
}
