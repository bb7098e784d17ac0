//! Online service-conformance monitor.
//!
//! During a simulation run, the global sequence of service primitives
//! executed by the protocol entities must be a trace of the service
//! specification. The monitor tracks the set of service states compatible
//! with the primitives observed so far (an i-closed "belief set" over the
//! service LTS, computed on the fly) and flags the first primitive that no
//! compatible state can perform.

use semantics::sos::transitions;
use semantics::term::{Env, Label, RTerm};
use std::collections::HashSet;
use std::rc::Rc;

/// Tracks which service states remain compatible with the observed
/// primitive sequence.
pub struct ServiceMonitor {
    env: Env,
    states: HashSet<Rc<RTerm>>,
    violated: Option<(String, u8)>,
    observed: Vec<(String, u8)>,
}

impl ServiceMonitor {
    /// Monitor for the given service specification.
    pub fn new(service: lotos::Spec) -> ServiceMonitor {
        let env = Env::new(service);
        let root = env.root();
        let mut m = ServiceMonitor {
            env,
            states: HashSet::from([root]),
            violated: None,
            observed: Vec::new(),
        };
        m.states = m.closure(m.states.iter().cloned().collect());
        m
    }

    fn closure(&self, seed: Vec<Rc<RTerm>>) -> HashSet<Rc<RTerm>> {
        let mut set: HashSet<Rc<RTerm>> = seed.iter().cloned().collect();
        let mut stack = seed;
        while let Some(t) = stack.pop() {
            for (l, t2) in transitions(&self.env, &t) {
                if l.is_internal() && set.insert(Rc::clone(&t2)) {
                    stack.push(t2);
                }
            }
        }
        set
    }

    /// Record the execution of primitive `name` at `place`. Returns
    /// `false` (and latches the violation) if the service does not allow
    /// it here.
    pub fn step(&mut self, name: &str, place: u8) -> bool {
        if self.violated.is_some() {
            return false;
        }
        self.observed.push((name.to_string(), place));
        let mut next = Vec::new();
        for t in &self.states {
            for (l, t2) in transitions(&self.env, t) {
                if let Label::Prim { name: n, place: p } = &l {
                    if n == name && *p == place {
                        next.push(t2);
                    }
                }
            }
        }
        if next.is_empty() {
            self.violated = Some((name.to_string(), place));
            return false;
        }
        self.states = self.closure(next);
        true
    }

    /// Can the service terminate (δ) from the current belief set?
    pub fn may_terminate(&self) -> bool {
        self.states.iter().any(|t| {
            transitions(&self.env, t)
                .iter()
                .any(|(l, _)| *l == Label::Delta)
        })
    }

    /// The first disallowed primitive, if any.
    pub fn violation(&self) -> Option<&(String, u8)> {
        self.violated.as_ref()
    }

    /// Index of the first disallowed primitive in the observed sequence:
    /// the monitor records it, then latches and observes nothing more.
    pub fn violation_at(&self) -> Option<usize> {
        self.violated.as_ref().map(|_| self.observed.len() - 1)
    }

    /// The primitive sequence observed so far.
    pub fn observed(&self) -> &[(String, u8)] {
        &self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotos::parser::parse_spec;

    fn monitor(src: &str) -> ServiceMonitor {
        ServiceMonitor::new(parse_spec(src).unwrap())
    }

    #[test]
    fn accepts_valid_trace() {
        let mut m = monitor("SPEC a1; b2; exit ENDSPEC");
        assert!(m.step("a", 1));
        assert!(m.step("b", 2));
        assert!(m.may_terminate());
        assert!(m.violation().is_none());
    }

    #[test]
    fn rejects_wrong_order() {
        let mut m = monitor("SPEC a1; b2; exit ENDSPEC");
        assert!(!m.step("b", 2));
        assert_eq!(m.violation(), Some(&("b".to_string(), 2)));
        // latched: nothing accepted afterwards
        assert!(!m.step("a", 1));
        assert_eq!(m.violation_at(), Some(0));
    }

    #[test]
    fn tracks_choice_belief() {
        let mut m = monitor("SPEC a1; b2; exit [] a1; c3; exit ENDSPEC");
        assert!(m.step("a", 1));
        // both continuations still possible
        assert!(m.step("c", 3));
        assert!(m.may_terminate());
    }

    #[test]
    fn skips_internal_steps() {
        let mut m = monitor("SPEC a1;exit >> b2;exit ENDSPEC");
        assert!(m.step("a", 1));
        assert!(m.step("b", 2)); // the hidden i of >> is closed over
        assert!(m.may_terminate());
    }

    #[test]
    fn termination_awareness() {
        let mut m = monitor("SPEC a1; b2; exit ENDSPEC");
        assert!(m.step("a", 1));
        assert!(!m.may_terminate());
        assert!(m.step("b", 2));
        assert!(m.may_terminate());
    }

    #[test]
    fn recursion_monitored() {
        let mut m = monitor("SPEC A WHERE PROC A = a1 ; A [] b1 ; exit END ENDSPEC");
        for _ in 0..10 {
            assert!(m.step("a", 1));
        }
        assert!(m.step("b", 1));
        assert!(m.may_terminate());
        assert!(!m.step("a", 1)); // after b, nothing more
    }
}
