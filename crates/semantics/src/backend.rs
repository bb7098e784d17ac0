//! How one protocol entity is stepped: interpreted terms or compiled
//! tables, behind one [`EntityBackend`] API that all three engines use.
//!
//! The discrete-event simulator (`sim::des`), the concurrent engine's
//! entity threads and the distributed entity process each drive one
//! place-local behaviour per session. This module abstracts *how* a step
//! is taken:
//!
//! * [`InterpretedBackend`] — hash-consed [`Engine`] terms, memoized
//!   transition rows.
//! * [`CompiledBackend`] — a [`crate::lower::CompiledEntity`] transition
//!   table walked with array indexing; per-session state is a dense state
//!   id plus a small occurrence-register file (see `docs/COMPILED.md`).
//!
//! The row a backend exposes preserves the SOS successor order exactly
//! (tables are built from [`Engine::transitions`], which matches
//! [`crate::sos::transitions`]), so backend choice never changes which
//! move a given RNG draw selects.
//!
//! [`EntityBackend::classify`] is the one place an offer row is judged
//! against the users' refusals and a medium: the engines supply only the
//! medium's readiness predicate, and keep the per-move *effects* (shared
//! session lock, wire outbox, simulated clock) to themselves.
//!
//! ## Call discipline
//!
//! `offers(&mut self, state)` loads the current row and returns its
//! length; [`EntityBackend::offer`] then gives borrowing views into it
//! and [`EntityBackend::step`] advances along one of its entries. The
//! row stays valid until the next `offers`/`step` call (one backend
//! instance serves many sessions by re-loading between them).

use crate::engine::{Engine, TermArena, TermId, TermNode};
use crate::fxhash::FxHashMap;
use crate::lower::{CompiledEntity, LabelTpl, OccBase, OccSrc};
use crate::term::{Label, OccTable};
use lotos::ast::Spec;
use lotos::event::{MsgId, SyncKind};
use lotos::place::PlaceId;
use std::sync::{Arc, Mutex};

/// Per-session cursor into a backend: an opaque state id plus the
/// occurrence registers of that state (empty for the interpreted
/// backend, whose terms carry concrete occurrences internally).
#[derive(Clone, Debug)]
pub struct BState {
    pub id: u32,
    pub regs: Vec<u32>,
}

/// A borrowed view of one offered transition — everything an engine
/// needs to classify the move against its medium, nothing owned.
pub enum OfferView<'a> {
    I,
    Delta,
    Prim {
        name: &'a str,
        place: PlaceId,
    },
    Send {
        to: PlaceId,
        msg: &'a MsgId,
        occ: u32,
        kind: SyncKind,
    },
    Recv {
        from: PlaceId,
        msg: &'a MsgId,
        occ: u32,
        kind: SyncKind,
    },
}

/// A loaded offer row judged against the users and the medium.
pub struct Classified {
    /// Indices of the enabled offers, in row order: τ, primitives the
    /// users accept, and the sends and receives the medium is ready for.
    pub enabled: Vec<usize>,
    /// Does the row offer δ (a termination vote)?
    pub delta: bool,
    /// The first primitive offer the users refuse — what a deadlock
    /// verdict names, since the conformance monitor never sees it.
    pub refused: Option<(String, PlaceId)>,
}

/// How a protocol entity is stepped, one session at a time.
pub trait EntityBackend {
    /// Fresh per-session cursor at the entity's initial state.
    fn init(&mut self) -> BState;
    /// Load the offer row of `s`; returns the number of offers. The row
    /// order is the interpreted successor order.
    fn offers(&mut self, s: &BState) -> usize;
    /// View offer `i` of the loaded row.
    fn offer(&self, i: usize) -> OfferView<'_>;
    /// Owned label of offer `i` of the loaded row (for effects/tracing).
    fn label(&self, i: usize) -> Label;
    /// Advance `s` along offer `i` of the loaded row.
    fn step(&mut self, s: &mut BState, i: usize);
    /// Is `s` inaction (`stop`), with nothing left to offer?
    fn is_stop(&self, s: &BState) -> bool;

    /// Classify the `n` offers of the loaded row. A primitive is enabled
    /// unless `refuse` lists it; a send or receive is enabled when the
    /// medium is `ready` for it; τ always is; δ is reported, never
    /// enabled (each engine resolves termination its own way).
    fn classify(
        &self,
        n: usize,
        refuse: &[(String, PlaceId)],
        mut ready: impl FnMut(&OfferView) -> bool,
    ) -> Classified
    where
        Self: Sized,
    {
        let mut row = Classified {
            enabled: Vec::with_capacity(n),
            delta: false,
            refused: None,
        };
        for i in 0..n {
            let offer = self.offer(i);
            let enabled = match offer {
                OfferView::I => true,
                OfferView::Delta => {
                    row.delta = true;
                    false
                }
                OfferView::Prim { name, place } => {
                    let refused = refuse.iter().any(|(n, p)| n == name && *p == place);
                    if refused && row.refused.is_none() {
                        row.refused = Some((name.to_string(), place));
                    }
                    !refused
                }
                OfferView::Send { .. } | OfferView::Recv { .. } => ready(&offer),
            };
            if enabled {
                row.enabled.push(i);
            }
        }
        row
    }
}

#[inline]
fn view_of(label: &Label) -> OfferView<'_> {
    match label {
        Label::I => OfferView::I,
        Label::Delta => OfferView::Delta,
        Label::Prim { name, place } => OfferView::Prim {
            name,
            place: *place,
        },
        Label::Send { to, msg, occ, kind } => OfferView::Send {
            to: *to,
            msg,
            occ: *occ,
            kind: *kind,
        },
        Label::Recv {
            from,
            msg,
            occ,
            kind,
        } => OfferView::Recv {
            from: *from,
            msg,
            occ: *occ,
            kind: *kind,
        },
    }
}

/// Term interpretation via the hash-consed engine.
pub struct InterpretedBackend {
    pub engine: Engine,
    row: Arc<[(Label, TermId)]>,
}

impl InterpretedBackend {
    pub fn new(engine: Engine) -> InterpretedBackend {
        InterpretedBackend {
            engine,
            row: Arc::from(Vec::new().into_boxed_slice()),
        }
    }
}

impl EntityBackend for InterpretedBackend {
    #[inline]
    fn init(&mut self) -> BState {
        BState {
            id: self.engine.root().raw(),
            regs: Vec::new(),
        }
    }

    #[inline]
    fn offers(&mut self, s: &BState) -> usize {
        self.row = self.engine.transitions(TermId::from_raw(s.id));
        self.row.len()
    }

    #[inline]
    fn offer(&self, i: usize) -> OfferView<'_> {
        view_of(&self.row[i].0)
    }

    #[inline]
    fn label(&self, i: usize) -> Label {
        self.row[i].0.clone()
    }

    #[inline]
    fn step(&mut self, s: &mut BState, i: usize) {
        s.id = self.row[i].1.raw();
    }

    #[inline]
    fn is_stop(&self, s: &BState) -> bool {
        matches!(self.engine.node(TermId::from_raw(s.id)), TermNode::Stop)
    }
}

/// Table-driven stepping over a lowered entity. Occurrence values are
/// produced by evaluating each transition's register sources against the
/// run's shared occurrence table; a local `(parent, site) → child` cache
/// keeps the shared-table mutex off the hot path (child interning is
/// append-only, so cached entries never go stale).
pub struct CompiledBackend {
    pub ent: Arc<CompiledEntity>,
    occ: Arc<Mutex<OccTable>>,
    child_cache: FxHashMap<(u32, u32), u32>,
    /// Evaluated occurrence per transition of the loaded row.
    occs: Vec<u32>,
    /// Loaded row bounds into `ent.trans`.
    row_start: usize,
    row_len: usize,
    regs_scratch: Vec<u32>,
}

impl CompiledBackend {
    pub fn new(ent: Arc<CompiledEntity>, occ: Arc<Mutex<OccTable>>) -> CompiledBackend {
        CompiledBackend {
            ent,
            occ,
            child_cache: FxHashMap::default(),
            occs: Vec::new(),
            row_start: 0,
            row_len: 0,
            regs_scratch: Vec::new(),
        }
    }
}

/// Evaluate an occurrence source against `regs`, chaining through the
/// backend-local child cache (falling back to the shared table to
/// intern). Free function so callers can borrow the table and the cache
/// disjointly from the rest of the backend.
fn eval_src(
    src: &OccSrc,
    regs: &[u32],
    cache: &mut FxHashMap<(u32, u32), u32>,
    occ: &Mutex<OccTable>,
) -> u32 {
    let mut v = match src.base {
        OccBase::Root => 0,
        OccBase::Reg(j) => regs[j as usize],
    };
    for &site in &src.sites {
        v = match cache.get(&(v, site)) {
            Some(&c) => c,
            None => {
                let c = occ.lock().expect("occ table poisoned").child(v, site);
                cache.insert((v, site), c);
                c
            }
        };
    }
    v
}

impl EntityBackend for CompiledBackend {
    #[inline]
    fn init(&mut self) -> BState {
        let regs = self
            .ent
            .initial_regs
            .iter()
            .map(|s| eval_src(s, &[], &mut self.child_cache, &self.occ))
            .collect();
        BState { id: 0, regs }
    }

    #[inline]
    fn offers(&mut self, s: &BState) -> usize {
        self.row_start = self.ent.row_off[s.id as usize] as usize;
        let row_end = self.ent.row_off[s.id as usize + 1] as usize;
        self.row_len = row_end - self.row_start;
        self.occs.clear();
        for t in &self.ent.trans[self.row_start..row_end] {
            // Occurrences only matter on Send/Recv, but evaluating
            // unconditionally is branch-free: non-message labels carry a
            // Root/empty source that evaluates to 0.
            let v = match t.occ.as_reg() {
                Some(j) => s.regs[j as usize],
                None => eval_src(&t.occ, &s.regs, &mut self.child_cache, &self.occ),
            };
            self.occs.push(v);
        }
        self.row_len
    }

    #[inline]
    fn offer(&self, i: usize) -> OfferView<'_> {
        let t = &self.ent.trans[self.row_start + i];
        match &self.ent.labels[t.label as usize] {
            LabelTpl::I => OfferView::I,
            LabelTpl::Delta => OfferView::Delta,
            LabelTpl::Prim { name, place } => OfferView::Prim {
                name,
                place: *place,
            },
            LabelTpl::Send { to, msg, kind } => OfferView::Send {
                to: *to,
                msg,
                occ: self.occs[i],
                kind: *kind,
            },
            LabelTpl::Recv { from, msg, kind } => OfferView::Recv {
                from: *from,
                msg,
                occ: self.occs[i],
                kind: *kind,
            },
        }
    }

    #[inline]
    fn label(&self, i: usize) -> Label {
        let t = &self.ent.trans[self.row_start + i];
        self.ent.labels[t.label as usize].materialize(self.occs[i])
    }

    #[inline]
    fn step(&mut self, s: &mut BState, i: usize) {
        let t = &self.ent.trans[self.row_start + i];
        self.regs_scratch.clear();
        for src in &t.regs {
            let v = match src.as_reg() {
                Some(j) => s.regs[j as usize],
                None => eval_src(src, &s.regs, &mut self.child_cache, &self.occ),
            };
            self.regs_scratch.push(v);
        }
        std::mem::swap(&mut s.regs, &mut self.regs_scratch);
        s.id = t.next;
    }

    #[inline]
    fn is_stop(&self, s: &BState) -> bool {
        self.ent.is_stop[s.id as usize]
    }
}

/// The two backends behind one statically-dispatched type (engine hot
/// loops stay monomorphic; no `dyn`).
pub enum Backend {
    Interpreted(InterpretedBackend),
    Compiled(CompiledBackend),
}

impl EntityBackend for Backend {
    #[inline]
    fn init(&mut self) -> BState {
        match self {
            Backend::Interpreted(b) => b.init(),
            Backend::Compiled(b) => b.init(),
        }
    }

    #[inline]
    fn offers(&mut self, s: &BState) -> usize {
        match self {
            Backend::Interpreted(b) => b.offers(s),
            Backend::Compiled(b) => b.offers(s),
        }
    }

    #[inline]
    fn offer(&self, i: usize) -> OfferView<'_> {
        match self {
            Backend::Interpreted(b) => b.offer(i),
            Backend::Compiled(b) => b.offer(i),
        }
    }

    #[inline]
    fn label(&self, i: usize) -> Label {
        match self {
            Backend::Interpreted(b) => b.label(i),
            Backend::Compiled(b) => b.label(i),
        }
    }

    #[inline]
    fn step(&mut self, s: &mut BState, i: usize) {
        match self {
            Backend::Interpreted(b) => b.step(s, i),
            Backend::Compiled(b) => b.step(s, i),
        }
    }

    #[inline]
    fn is_stop(&self, s: &BState) -> bool {
        match self {
            Backend::Interpreted(b) => b.is_stop(s),
            Backend::Compiled(b) => b.is_stop(s),
        }
    }
}

/// Build the backend for one entity of a run: compiled when tables were
/// lowered for it, interpreted otherwise. `arena`/`occ` are the run's
/// shared term arena and §3.5 occurrence table (both backends intern
/// occurrences through the same table, so entities agree on instance
/// numbers regardless of per-entity backend mix).
pub fn make_backend(
    spec: &Spec,
    compiled: Option<Arc<CompiledEntity>>,
    arena: &Arc<TermArena>,
    occ: &Arc<Mutex<OccTable>>,
) -> Backend {
    match compiled {
        Some(ent) => Backend::Compiled(CompiledBackend::new(ent, Arc::clone(occ))),
        None => Backend::Interpreted(InterpretedBackend::new(Engine::with_shared(
            spec.clone(),
            Arc::clone(arena),
            Arc::clone(occ),
        ))),
    }
}

/// Move the interpreted entities of a run (which share one arena, as
/// [`make_backend`] builds them) into a fresh arena, keeping only the
/// terms their current states reach, and return that arena.
/// The run's old arena and the engines' memo tables are dropped with
/// their dead terms, which bounds what a long run retains. Occurrence
/// numbering is untouched (the occurrence table stays shared), and the
/// moved states offer the same rows in the same order as before.
pub fn compact(backends: &mut [Backend], states: &mut [BState]) -> Arc<TermArena> {
    let arena = Arc::new(TermArena::new());
    let mut moved = FxHashMap::default();
    for (backend, s) in backends.iter_mut().zip(states) {
        if let Backend::Interpreted(b) = backend {
            let old = &b.engine;
            let engine =
                Engine::with_shared(old.spec.clone(), Arc::clone(&arena), old.occ_handle());
            let t = old
                .arena()
                .copy_into(TermId::from_raw(s.id), &arena, &mut moved);
            s.id = t.raw();
            *b = InterpretedBackend::new(engine);
        }
    }
    arena
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower_entity, LowerConfig};
    use lotos::parser::parse_spec;

    fn backends(src: &str) -> (Backend, Backend) {
        let spec = parse_spec(src).unwrap();
        let arena = Arc::new(TermArena::new());
        let occ = Arc::new(Mutex::new(OccTable::new()));
        let interp = make_backend(&spec, None, &arena, &occ);
        let ent = lower_entity(&spec, 1, &LowerConfig::default()).unwrap();
        let arena2 = Arc::new(TermArena::new());
        let occ2 = Arc::new(Mutex::new(OccTable::new()));
        let comp = make_backend(&spec, Some(Arc::new(ent)), &arena2, &occ2);
        (interp, comp)
    }

    /// Walk both backends lock-step, always taking the first offer, and
    /// require identical label sequences.
    #[test]
    fn first_offer_walk_agrees() {
        let (mut a, mut b) = backends(
            "SPEC s2(s,1); exit >> A WHERE PROC A = r2(s,2); exit >> s2(s,3); exit >> A END ENDSPEC",
        );
        let mut sa = a.init();
        let mut sb = b.init();
        for _ in 0..40 {
            let (na, nb) = (a.offers(&sa), b.offers(&sb));
            assert_eq!(na, nb);
            if na == 0 {
                break;
            }
            let (la, lb) = (a.label(0), b.label(0));
            assert_eq!(format!("{la}"), format!("{lb}"));
            if matches!(la, Label::Delta) {
                break;
            }
            a.step(&mut sa, 0);
            b.step(&mut sb, 0);
        }
    }

    #[test]
    fn is_stop_agrees_after_termination() {
        let (mut a, mut b) = backends("SPEC a1; exit ENDSPEC");
        let mut sa = a.init();
        let mut sb = b.init();
        for (be, s) in [(&mut a, &mut sa), (&mut b, &mut sb)] {
            // a1, then δ, then stop
            for _ in 0..2 {
                assert!(!be.is_stop(s));
                assert_eq!(be.offers(s), 1);
                be.step(s, 0);
            }
            assert!(be.is_stop(s));
            assert_eq!(be.offers(s), 0);
        }
    }

    /// The classifier enables τ and accepted primitives, asks the medium
    /// about messages, reports δ without enabling it, and names the first
    /// refused primitive.
    #[test]
    fn classify_splits_the_row() {
        let interpreted = |src: &str| {
            let arena = Arc::new(TermArena::new());
            let occ = Arc::new(Mutex::new(OccTable::new()));
            make_backend(&parse_spec(src).unwrap(), None, &arena, &occ)
        };
        let mut be =
            interpreted("SPEC i; exit [] a1; exit [] b1; exit [] c1; exit [] exit ENDSPEC");
        let s = be.init();
        let n = be.offers(&s);
        let refuse = [("b".to_string(), 1), ("c".to_string(), 1)];
        let row = be.classify(n, &refuse, |_| unreachable!("no message offers"));
        assert_eq!(row.enabled, vec![0, 1]);
        assert!(row.delta);
        assert_eq!(row.refused, Some(("b".to_string(), 1)));

        let mut be = interpreted("SPEC s2(s,1); exit [] r2(s,2); exit ENDSPEC");
        let s = be.init();
        let n = be.offers(&s);
        let row = be.classify(n, &[], |v| matches!(v, OfferView::Recv { .. }));
        assert_eq!(row.enabled, vec![1]);
        assert!(!row.delta);
        assert_eq!(row.refused, None);
    }
}
