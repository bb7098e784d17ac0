//! Backend selection: which entities of a derivation step compiled
//! tables.
//!
//! The backends themselves live in [`semantics::backend`] —
//! `EntityBackend` with its interpreted and compiled implementations and
//! the shared offer classifier — where all three engines (the DES in
//! [`sim::des`], the concurrent entity threads, the distributed entity
//! process) reach them. This module only maps a [`BackendChoice`] onto
//! the per-entity tables a run steps, once per run.

use crate::config::BackendChoice;
use lotos::ast::Spec;
use lotos::place::PlaceId;
use semantics::lower::{lower_entity, CompiledEntity, LowerConfig};
use std::sync::Arc;

/// Lower each entity of a derivation once per run, honoring the backend
/// choice. Returns `None` per entity that must interpret:
///
/// * `Interpreted` — never lowers;
/// * `Auto` — lowers where possible, silently falls back where not
///   (unbounded recursion unrolling, see [`semantics::lower::LowerError`]);
/// * `Compiled` — lowering failure is a hard error (the caller asked for
///   tables; running something else would silently change what is being
///   measured).
pub fn lower_for(
    entities: &[(PlaceId, Spec)],
    choice: BackendChoice,
) -> Result<Vec<Option<Arc<CompiledEntity>>>, String> {
    let cfg = LowerConfig::default();
    entities
        .iter()
        .map(|(place, spec)| match choice {
            BackendChoice::Interpreted => Ok(None),
            BackendChoice::Auto => Ok(lower_entity(spec, *place, &cfg).ok().map(Arc::new)),
            BackendChoice::Compiled => match lower_entity(spec, *place, &cfg) {
                Ok(e) => Ok(Some(Arc::new(e))),
                Err(e) => Err(format!(
                    "--backend compiled: entity at place {place} cannot be lowered ({e}); \
                     use --backend auto to fall back to interpretation"
                )),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotos::parser::parse_spec;

    #[test]
    fn lower_for_honors_choice() {
        let spec = parse_spec("SPEC a1; exit ENDSPEC").unwrap();
        let ents = vec![(1u8, spec)];
        assert!(lower_for(&ents, BackendChoice::Interpreted).unwrap()[0].is_none());
        assert!(lower_for(&ents, BackendChoice::Auto).unwrap()[0].is_some());
        assert!(lower_for(&ents, BackendChoice::Compiled).unwrap()[0].is_some());
        // an unboundedly-spawning entity: auto falls back, compiled errors
        let diverging =
            parse_spec("SPEC A WHERE PROC A = a1; (b1; exit ||| A) END ENDSPEC").unwrap();
        let ents = vec![(1u8, diverging)];
        assert!(lower_for(&ents, BackendChoice::Auto).unwrap()[0].is_none());
        assert!(lower_for(&ents, BackendChoice::Compiled).is_err());
    }
}
