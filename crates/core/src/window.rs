//! Rule windows as ranges of one transaction-wide transition log.
//!
//! Figure 1 composes every transition into a `trans-info` per rule — the
//! "considerable redundancy" §4.3 warns of. Here each transition is
//! recorded once and a rule's window is the log suffix `log[start..]`:
//! the acting-rule, `SinceLastConsidered` and `SinceLastTriggering`
//! restarts just move `start` to the end of the log. A suffix's
//! Definition-2.1 composition depends only on its start, so it is kept
//! once per distinct live start, folded forward once per transition and
//! dropped when no rule starts there; suffixes of zero or one transition
//! need none. Incremental memos repair from the same log
//! ([`TransitionLog::delta_since`]). Figure 1's per-rule absorption is
//! the reference model of this module's differential test.

use std::collections::{BTreeMap, BTreeSet};

use crate::transinfo::TransInfo;

static EMPTY: TransInfo = TransInfo {
    ins: BTreeSet::new(),
    del: BTreeMap::new(),
    upd: BTreeMap::new(),
    sel: BTreeMap::new(),
};

/// One transaction's transitions and every rule's window into them.
pub(crate) struct TransitionLog {
    /// One entry per transition (external blocks and rule actions alike).
    log: Vec<TransInfo>,
    /// `starts[r]`: rule `r`'s window is `log[starts[r]..]`.
    starts: Vec<usize>,
    /// Live start → number of rules whose window starts there.
    live: BTreeMap<usize, usize>,
    /// Live start `s` with `s + 2 <= log.len()` → composition of `log[s..]`.
    comps: BTreeMap<usize, TransInfo>,
    /// Suffix starts [`Self::delta_since`] handed out since the log last
    /// grew.
    served: BTreeSet<usize>,
    /// Suffix compositions it had to fold (no live start there) since
    /// the log last grew.
    folded: BTreeMap<usize, TransInfo>,
}

impl TransitionLog {
    /// An empty log with `rules` windows, all starting at the beginning.
    pub(crate) fn new(rules: usize) -> Self {
        TransitionLog {
            log: Vec::new(),
            starts: vec![0; rules],
            live: (rules > 0).then_some((0, rules)).into_iter().collect(),
            comps: BTreeMap::new(),
            served: BTreeSet::new(),
            folded: BTreeMap::new(),
        }
    }

    /// Number of transitions recorded.
    pub(crate) fn len(&self) -> usize {
        self.log.len()
    }

    /// Where `rule`'s window starts.
    pub(crate) fn start(&self, rule: usize) -> usize {
        self.starts[rule]
    }

    /// `rule`'s composite window (Fig. 1's `R.trans-info`).
    pub(crate) fn window(&self, rule: usize) -> &TransInfo {
        self.suffix(self.starts[rule])
    }

    /// The composition of `log[from..]`.
    fn suffix(&self, from: usize) -> &TransInfo {
        match self.log.len() - from {
            0 => &EMPTY,
            1 => &self.log[from],
            _ => self
                .comps
                .get(&from)
                .or_else(|| self.folded.get(&from))
                .expect("multi-transition suffix is composed"),
        }
    }

    /// Restart `rule`'s window empty at the end of the log; restarting
    /// before [`Self::append`] makes the window exactly that transition.
    pub(crate) fn restart(&mut self, rule: usize) {
        let (old, end) = (self.starts[rule], self.log.len());
        if old == end {
            return;
        }
        self.starts[rule] = end;
        *self.live.entry(end).or_insert(0) += 1;
        let n = self.live.get_mut(&old).expect("a rule starts here");
        *n -= 1;
        if *n == 0 {
            self.live.remove(&old);
            self.comps.remove(&old);
        }
    }

    /// Record one transition, extending every window by it.
    pub(crate) fn append(&mut self, t: TransInfo) {
        for comp in self.comps.values_mut() {
            comp.compose(&t);
        }
        // A window that was exactly the last transition now spans two.
        if let Some(last) = self.log.len().checked_sub(1).filter(|s| self.live.contains_key(s)) {
            let mut comp = self.log[last].clone();
            comp.compose(&t);
            self.comps.insert(last, comp);
        }
        self.log.push(t);
        self.served.clear();
        self.folded.clear();
    }

    /// `rule`'s window, the composition of `log[seq..]` since a memo
    /// cursor, and whether that suffix was already handed out since the
    /// log last grew (another refresh shares it).
    pub(crate) fn delta_since(
        &mut self,
        rule: usize,
        seq: usize,
    ) -> (&TransInfo, &TransInfo, bool) {
        let shared = !self.served.insert(seq);
        if seq + 2 <= self.log.len() && !self.comps.contains_key(&seq) {
            let log = &self.log;
            self.folded.entry(seq).or_insert_with(|| {
                let mut comp = log[seq].clone();
                log[seq + 1..].iter().for_each(|t| comp.compose(t));
                comp
            });
        }
        (self.window(rule), self.suffix(seq), shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transinfo::tests::{del, ins, upd};
    use crate::RetriggerSemantics;
    use setrules_query::OpEffect;
    use setrules_testkit::{check, Rng};

    /// Figure 1 verbatim: one `TransInfo` per rule; at every transition a
    /// restarting rule's is replaced by it and every other rule's absorbs
    /// it.
    struct Figure1 {
        infos: Vec<TransInfo>,
    }

    impl Figure1 {
        fn apply(&mut self, t: &TransInfo, restarts: &[bool]) {
            for (slot, &restart) in self.infos.iter_mut().zip(restarts) {
                if restart {
                    *slot = t.clone();
                } else {
                    slot.compose(t);
                }
            }
        }
    }

    /// A random transition of 1–3 operations over live tuples (handles
    /// never reused, old values as the tuples stood before each op).
    fn transition(rng: &mut Rng, live: &mut BTreeMap<u64, i64>, next: &mut u64) -> TransInfo {
        let mut t = TransInfo::new();
        for _ in 0..1 + rng.below(3) {
            let op: OpEffect = match rng.below(3) {
                0 => {
                    let hs: Vec<u64> = (0..1 + rng.below(2))
                        .map(|_| {
                            *next += 1;
                            live.insert(*next, 0);
                            *next
                        })
                        .collect();
                    ins(&hs)
                }
                _ if live.is_empty() => continue,
                1 => {
                    let h = *rng.pick(&live.keys().copied().collect::<Vec<_>>());
                    del(&[(h, live.remove(&h).expect("live"))])
                }
                _ => {
                    let h = *rng.pick(&live.keys().copied().collect::<Vec<_>>());
                    let v = live.get_mut(&h).expect("live");
                    let old = *v;
                    *v += 1;
                    upd(&[(h, rng.below(2) as u16, old)])
                }
            };
            t.absorb(&op, false);
        }
        t
    }

    /// Rule `r` triggers on inserts, deletes or updates by `r % 3`.
    fn triggers(r: usize, t: &TransInfo) -> bool {
        match r % 3 {
            0 => !t.ins.is_empty(),
            1 => !t.del.is_empty(),
            _ => !t.upd.is_empty(),
        }
    }

    /// A memo cursor `(start, seq)` and the composition of the
    /// transitions since it, absorbed Figure-1 style.
    type Cursor = Option<(usize, usize, TransInfo)>;

    /// Repair rule `r` from its cursor, if still live (its window has
    /// not restarted since), and compare with the model.
    fn check_cursor(
        log: &mut TransitionLog,
        model: &Figure1,
        served: &mut BTreeSet<usize>,
        r: usize,
        cursor: &Cursor,
    ) {
        let Some((start, seq, delta)) = cursor else { return };
        if *start != log.start(r) || *seq == log.len() {
            return;
        }
        let (window, got, shared) = log.delta_since(r, *seq);
        assert_eq!(window, &model.infos[r], "window of rule {r}");
        assert_eq!(got, delta, "delta of rule {r} since {seq}");
        assert_eq!(shared, !served.insert(*seq), "sharing of log[{seq}..]");
    }

    fn differential(rng: &mut Rng, semantics: RetriggerSemantics) {
        let rules = 1 + rng.below(5);
        let mut log = TransitionLog::new(rules);
        let mut model = Figure1 { infos: vec![TransInfo::new(); rules] };
        let mut cursors: Vec<Cursor> = vec![None; rules];
        // Suffix starts handed out since the last transition.
        let mut served = BTreeSet::new();
        let (mut live, mut next) = (BTreeMap::new(), 0);
        for _ in 0..1 + rng.below(14) {
            let t = transition(rng, &mut live, &mut next);
            let acting = rng.chance(2, 3).then(|| rng.below(rules));
            let restarts: Vec<bool> = (0..rules)
                .map(|r| {
                    Some(r) == acting
                        || (semantics == RetriggerSemantics::SinceLastTriggering && triggers(r, &t))
                })
                .collect();
            model.apply(&t, &restarts);
            for (r, cursor) in cursors.iter_mut().enumerate() {
                if let Some((_, _, delta)) = cursor {
                    delta.compose(&t);
                }
                if restarts[r] {
                    log.restart(r);
                }
            }
            log.append(t);
            served.clear();
            // Considerations: a rule's memo repairs from its cursor and
            // catches up to the log end; a false one under footnote 8 also
            // clears its window.
            for _ in 0..rng.below(2 * rules + 1) {
                let r = rng.below(rules);
                check_cursor(&mut log, &model, &mut served, r, &cursors[r]);
                cursors[r] = Some((log.start(r), log.len(), TransInfo::new()));
                if semantics == RetriggerSemantics::SinceLastConsidered && rng.chance(1, 2) {
                    log.restart(r);
                    model.infos[r] = TransInfo::new();
                }
            }
            for (r, cursor) in cursors.iter().enumerate() {
                assert_eq!(log.window(r), &model.infos[r], "window of rule {r}");
                check_cursor(&mut log, &model, &mut served, r, cursor);
            }
            assert!(log.comps.keys().all(|s| log.live.contains_key(s)), "dead start evicted");
        }
    }

    #[test]
    fn log_ranges_match_figure_1_per_rule_windows() {
        for (seed, semantics) in [
            (0x11, RetriggerSemantics::SinceLastAction),
            (0x12, RetriggerSemantics::SinceLastConsidered),
            (0x13, RetriggerSemantics::SinceLastTriggering),
        ] {
            check(&format!("figure1-{semantics:?}"), 300, seed, |rng| differential(rng, semantics));
        }
    }

    #[test]
    fn windows_share_one_composition_per_start() {
        let info = |op: OpEffect| {
            let mut t = TransInfo::new();
            t.absorb(&op, false);
            t
        };
        let mut log = TransitionLog::new(3);
        log.append(info(ins(&[1])));
        assert!(log.comps.is_empty(), "a one-transition window is the log entry");
        log.restart(2);
        log.append(info(ins(&[2])));
        assert_eq!(log.comps.len(), 1, "rules 0 and 1 share log[0..]");
        assert!(!log.delta_since(0, 0).2);
        assert!(log.delta_since(1, 0).2, "second ask for log[0..] is shared");
        log.restart(0);
        log.restart(1);
        assert!(log.comps.is_empty(), "no rule starts at 0 any more");
        log.append(info(ins(&[3])));
        assert_eq!(log.window(2).ins.len(), 2);
    }
}
