#![warn(missing_docs)]
//! Rete match network with the paper's S-node extension.
//!
//! The network structure is classic Rete — shared alpha memories, binary
//! join chains, Doorenbos-style token trees for incremental retraction,
//! negated-CE nodes — "leaving the network untouched, except at the end of
//! the network for each set-oriented rule" (§5), where the production
//! layer ([`sorete_soi::Productions`]) aggregates candidate instantiations
//! into SOIs in the rule's S-node.
//!
//! ```
//! use sorete_rete::ReteMatcher;
//! use sorete_lang::{analyze_rule, parse_rule, Matcher};
//! use sorete_base::{CsDelta, Symbol, TimeTag, Value, Wme};
//! use std::sync::Arc;
//!
//! let mut rete = ReteMatcher::new();
//! rete.add_rule(Arc::new(analyze_rule(&parse_rule(
//!     "(p pair (a ^x <v>) (b ^x <v>) (halt))").unwrap()).unwrap()));
//! let wme = |tag, class: &str| Wme::new(TimeTag::new(tag), Symbol::new(class),
//!                                       vec![(Symbol::new("x"), Value::Int(1))]);
//! rete.insert_wme(&wme(1, "a"));
//! rete.insert_wme(&wme(2, "b"));
//! let deltas = rete.drain_deltas();
//! assert!(matches!(deltas.as_slice(), [CsDelta::Insert(_)]));
//! ```

pub mod dot;
pub mod index;
pub mod matcher;
pub mod nodes;

pub use matcher::ReteMatcher;

#[cfg(test)]
mod tests {
    use super::*;
    use sorete_base::{CsDelta, FxHashMap, InstKey, Symbol, TimeTag, Value, Wme};
    use sorete_lang::matcher::Matcher;
    use sorete_lang::{analyze_rule, parse_rule};
    use std::sync::Arc;

    /// Test harness: a matcher plus a hand-maintained conflict set.
    struct Harness {
        m: ReteMatcher,
        next_tag: u64,
        wmes: FxHashMap<TimeTag, Wme>,
        cs: FxHashMap<InstKey, sorete_base::ConflictItem>,
    }

    impl Harness {
        fn new(rules: &[&str]) -> Harness {
            let mut m = ReteMatcher::new();
            for src in rules {
                let r = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
                m.add_rule(r);
            }
            Harness {
                m,
                next_tag: 1,
                wmes: FxHashMap::default(),
                cs: FxHashMap::default(),
            }
        }

        fn make(&mut self, class: &str, slots: &[(&str, Value)]) -> TimeTag {
            let tag = TimeTag::new(self.next_tag);
            self.next_tag += 1;
            let wme = Wme::new(
                tag,
                Symbol::new(class),
                slots.iter().map(|(a, v)| (Symbol::new(a), *v)).collect(),
            );
            self.wmes.insert(tag, wme.clone());
            self.m.insert_wme(&wme);
            self.apply_deltas();
            tag
        }

        fn remove(&mut self, tag: TimeTag) {
            let wme = self.wmes.remove(&tag).unwrap();
            self.m.remove_wme(&wme);
            self.apply_deltas();
        }

        fn apply_deltas(&mut self) {
            for d in self.m.drain_deltas() {
                match d {
                    CsDelta::Insert(item) => {
                        let prev = self.cs.insert(item.key.clone(), item);
                        assert!(prev.is_none(), "duplicate insert into conflict set");
                    }
                    CsDelta::Remove(key) => {
                        let prev = self.cs.remove(&key);
                        assert!(prev.is_some(), "removal of unknown conflict-set entry");
                    }
                    CsDelta::Retime(info) => {
                        // May be followed by a Remove in the same batch.
                        if let Some(fresh) = self.m.materialize(&info.key) {
                            let prev = self.cs.insert(info.key.clone(), fresh);
                            assert!(prev.is_some(), "retime of unknown conflict-set entry");
                        }
                    }
                }
            }
        }

        fn size(&self) -> usize {
            self.cs.len()
        }

        fn player(&mut self, name: &str, team: &str) -> TimeTag {
            self.make(
                "player",
                &[("name", Value::sym(name)), ("team", Value::sym(team))],
            )
        }
    }

    /// The paper's Figure 1 working memory.
    fn figure1_wm(h: &mut Harness) -> Vec<TimeTag> {
        vec![
            h.player("Jack", "A"),
            h.player("Janice", "A"),
            h.player("Sue", "B"),
            h.player("Jack", "B"),
            h.player("Sue", "B"),
        ]
    }

    const COMPETE: &str = "(p compete
        (player ^name <n1> ^team A)
        (player ^name <n2> ^team B)
        (write <n1> <n2>))";

    #[test]
    fn figure1_six_instantiations() {
        let mut h = Harness::new(&[COMPETE]);
        figure1_wm(&mut h);
        assert_eq!(h.size(), 6, "2 A-players × 3 B-players");
    }

    #[test]
    fn figure2_all_set_lhs_one_soi() {
        let mut h = Harness::new(&[
            "(p compete1 [player ^name <n1> ^team A] [player ^name <n2> ^team B] (halt))",
        ]);
        figure1_wm(&mut h);
        assert_eq!(h.size(), 1, "a fully set-oriented LHS produces one SOI");
        let item = h.cs.values().next().unwrap();
        assert_eq!(item.rows.len(), 6, "the SOI contains the entire relation");
    }

    #[test]
    fn figure2_mixed_lhs_partitions_by_regular_ce() {
        let mut h = Harness::new(&[
            "(p compete2 [player ^name <n1> ^team A] (player ^name <n2> ^team B) (halt))",
        ]);
        figure1_wm(&mut h);
        // One SOI per B-team WME (3 of them), each aggregating both A players.
        assert_eq!(h.size(), 3);
        for item in h.cs.values() {
            assert_eq!(item.rows.len(), 2);
        }
    }

    #[test]
    fn join_on_shared_variable() {
        let mut h = Harness::new(&[
            "(p pair (player ^name <n> ^team A) (player ^name <n> ^team B) (halt))",
        ]);
        figure1_wm(&mut h);
        // Only Jack is on both teams.
        assert_eq!(h.size(), 1);
        let item = h.cs.values().next().unwrap();
        assert_eq!(item.rows[0].len(), 2);
    }

    #[test]
    fn incremental_removal() {
        let mut h = Harness::new(&[COMPETE]);
        let tags = figure1_wm(&mut h);
        assert_eq!(h.size(), 6);
        h.remove(tags[0]); // Jack leaves team A
        assert_eq!(h.size(), 3);
        h.remove(tags[2]); // one Sue leaves team B
        assert_eq!(h.size(), 2);
        h.remove(tags[1]); // Janice leaves team A
        assert_eq!(h.size(), 0);
        assert_eq!(h.m.token_count(), 1, "only the dummy token survives");
    }

    #[test]
    fn soi_tracks_removal() {
        let mut h = Harness::new(&["(p all [player ^team B ^name <n>] (halt))"]);
        let tags = figure1_wm(&mut h);
        assert_eq!(h.size(), 1);
        assert_eq!(h.cs.values().next().unwrap().rows.len(), 3);
        h.remove(tags[2]);
        assert_eq!(h.cs.values().next().unwrap().rows.len(), 2);
        h.remove(tags[3]);
        h.remove(tags[4]);
        assert_eq!(h.size(), 0, "empty SOI leaves the conflict set");
    }

    #[test]
    fn negation_blocks_and_unblocks() {
        let mut h = Harness::new(&[
            "(p lonely (player ^name <n> ^team A) -(player ^name <n> ^team B) (halt))",
        ]);
        let jack_a = h.player("Jack", "A");
        assert_eq!(h.size(), 1, "no B-team Jack yet");
        let jack_b = h.player("Jack", "B");
        assert_eq!(h.size(), 0, "blocked by B-team Jack");
        h.remove(jack_b);
        assert_eq!(h.size(), 1, "unblocked after retraction");
        h.remove(jack_a);
        assert_eq!(h.size(), 0);
    }

    #[test]
    fn negation_first_ce() {
        let mut h = Harness::new(&["(p empty -(player ^team A) (goal ^want check) (halt))"]);
        h.make("goal", &[("want", Value::sym("check"))]);
        assert_eq!(h.size(), 1);
        let a = h.player("X", "A");
        assert_eq!(h.size(), 0);
        h.remove(a);
        assert_eq!(h.size(), 1);
    }

    #[test]
    fn same_wme_feeding_consecutive_ces_no_duplicates() {
        // A single WME satisfies both CEs; the deepest-first activation
        // ordering must produce exactly one instantiation (w, w).
        let mut h = Harness::new(&["(p twice (player ^name <n>) (player ^name <n>) (halt))"]);
        h.player("Solo", "A");
        assert_eq!(h.size(), 1);
    }

    #[test]
    fn alpha_and_beta_sharing_across_rules() {
        let shared_a = "(p r1 (player ^team A ^name <n>) (player ^team B ^name <n>) (halt))";
        let shared_b = "(p r2 (player ^team A ^name <n>) (player ^team B ^name <n>) (write <n>))";
        let mut both = ReteMatcher::new();
        for src in [shared_a, shared_b] {
            both.add_rule(Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap()));
        }
        let mut single = ReteMatcher::new();
        single.add_rule(Arc::new(
            analyze_rule(&parse_rule(shared_a).unwrap()).unwrap(),
        ));
        // Identical LHS prefix: the second rule adds only its production node.
        assert_eq!(both.alpha_count(), single.alpha_count());
        assert_eq!(both.node_count(), single.node_count() + 1);
    }

    #[test]
    fn set_and_regular_rules_share_alpha_memories() {
        let mut m = ReteMatcher::new();
        m.add_rule(Arc::new(
            analyze_rule(&parse_rule("(p r1 (player ^team A) (halt))").unwrap()).unwrap(),
        ));
        let before = m.alpha_count();
        m.add_rule(Arc::new(
            analyze_rule(&parse_rule("(p r2 [player ^team A] (halt))").unwrap()).unwrap(),
        ));
        assert_eq!(
            m.alpha_count(),
            before,
            "set-oriented CE reuses the alpha memory"
        );
    }

    #[test]
    fn count_test_gates_soi() {
        let mut h = Harness::new(&["(p dups { [player ^name <n> ^team <t>] <P> }
               :scalar (<n> <t>)
               :test ((count <P>) > 1)
               (set-remove <P>))"]);
        h.player("Sue", "B");
        assert_eq!(h.size(), 0);
        h.player("Sue", "B");
        assert_eq!(h.size(), 1, "duplicate Sue/B detected");
        h.player("Jack", "B");
        assert_eq!(h.size(), 1, "Jack is unique — no new SOI");
        let item = h.cs.values().next().unwrap();
        assert_eq!(item.rows.len(), 2);
        assert_eq!(item.aggregates, vec![Value::Int(2)]);
    }

    #[test]
    fn switchteams_equal_count_test() {
        let mut h = Harness::new(&["(p SwitchTeams
               { [player ^team A] <ATeam> }
               { [player ^team B] <BTeam> }
               :test ((count <ATeam>) == (count <BTeam>))
               (set-modify <ATeam> ^team B)
               (set-modify <BTeam> ^team A))"]);
        h.player("Jack", "A");
        assert_eq!(h.size(), 0, "1 vs 0: no rows at all without a B player");
        h.player("Sue", "B");
        assert_eq!(h.size(), 1, "1 == 1");
        h.player("Janice", "A");
        assert_eq!(h.size(), 0, "2 vs 1");
        h.player("Mike", "B");
        assert_eq!(h.size(), 1, "2 == 2");
        let item = h.cs.values().next().unwrap();
        assert_eq!(item.rows.len(), 4, "full cross product of 2×2");
        assert_eq!(item.aggregates, vec![Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn predicates_and_disjunction_in_alpha() {
        let mut h = Harness::new(&["(p sel (emp ^salary > 10000 ^dept << sales eng >>) (halt))"]);
        h.make(
            "emp",
            &[("salary", Value::Int(20000)), ("dept", Value::sym("sales"))],
        );
        h.make(
            "emp",
            &[("salary", Value::Int(5000)), ("dept", Value::sym("eng"))],
        );
        h.make(
            "emp",
            &[("salary", Value::Int(20000)), ("dept", Value::sym("hr"))],
        );
        assert_eq!(h.size(), 1);
    }

    #[test]
    fn intra_ce_variable_test() {
        let mut h = Harness::new(&["(p self (edge ^from <x> ^to <x>) (halt))"]);
        h.make("edge", &[("from", Value::Int(1)), ("to", Value::Int(2))]);
        assert_eq!(h.size(), 0);
        h.make("edge", &[("from", Value::Int(3)), ("to", Value::Int(3))]);
        assert_eq!(h.size(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = Harness::new(&[
            COMPETE,
            "(p pair (player ^name <n> ^team A) (player ^name <n> ^team B) (halt))",
        ]);
        figure1_wm(&mut h);
        let s = h.m.stats();
        assert!(s.alpha_activations >= 5);
        assert!(s.tokens_created >= 6);
        // The `pair` rule joins on <n> — a pure-equality join, so the
        // default (indexed) matcher answers it with hash probes.
        assert!(s.indexed_nodes >= 1);
        assert!(s.index_probes > 0, "the `pair` rule probes its hash index");
        assert_eq!(s.join_tests, 0, "no residual tests remain");
    }

    #[test]
    fn scan_mode_counts_join_tests() {
        let mut m = ReteMatcher::with_indexing(false);
        m.add_rule(Arc::new(
            analyze_rule(
                &parse_rule(
                    "(p pair (player ^name <n> ^team A) (player ^name <n> ^team B) (halt))",
                )
                .unwrap(),
            )
            .unwrap(),
        ));
        let mk = |tag: u64, name: &str, team: &str| {
            Wme::new(
                TimeTag::new(tag),
                Symbol::new("player"),
                vec![
                    (Symbol::new("name"), Value::sym(name)),
                    (Symbol::new("team"), Value::sym(team)),
                ],
            )
        };
        m.insert_wme(&mk(1, "Jack", "A"));
        m.insert_wme(&mk(2, "Jack", "B"));
        let s = m.stats();
        assert!(s.join_tests > 0, "scan mode evaluates every test");
        assert_eq!(s.index_probes, 0);
        assert_eq!(s.indexed_nodes, 0);
        assert_eq!(m.algorithm_name(), "rete-scan");
    }

    #[test]
    fn indexed_and_scan_agree_and_validate() {
        let rules = &[
            COMPETE,
            "(p pair (player ^name <n> ^team A) (player ^name <n> ^team B) (halt))",
            "(p lonely (player ^name <n> ^team A) -(player ^name <n> ^team B) (halt))",
        ];
        let mut idx = ReteMatcher::new();
        let mut scan = ReteMatcher::with_indexing(false);
        for src in rules {
            let r = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
            idx.add_rule(r.clone());
            scan.add_rule(r);
        }
        let mk = |tag: u64, name: &str, team: &str| {
            Wme::new(
                TimeTag::new(tag),
                Symbol::new("player"),
                vec![
                    (Symbol::new("name"), Value::sym(name)),
                    (Symbol::new("team"), Value::sym(team)),
                ],
            )
        };
        let script = [
            mk(1, "Jack", "A"),
            mk(2, "Janice", "A"),
            mk(3, "Sue", "B"),
            mk(4, "Jack", "B"),
            mk(5, "Sue", "B"),
        ];
        for w in &script {
            idx.insert_wme(w);
            scan.insert_wme(w);
            assert_eq!(
                format!("{:?}", idx.drain_deltas()),
                format!("{:?}", scan.drain_deltas()),
                "indexed and scan delta streams must be byte-identical"
            );
            idx.validate_indexes().unwrap();
        }
        for w in [&script[3], &script[0]] {
            idx.remove_wme(w);
            scan.remove_wme(w);
            assert_eq!(
                format!("{:?}", idx.drain_deltas()),
                format!("{:?}", scan.drain_deltas())
            );
            idx.validate_indexes().unwrap();
        }
        let (si, ss) = (idx.stats(), scan.stats());
        assert!(si.join_tests <= ss.join_tests);
        assert!(si.index_probes > 0);
    }

    #[test]
    fn retime_emitted_on_soi_growth() {
        let mut h = Harness::new(&["(p all [player ^team A] (halt))"]);
        h.player("Jack", "A");
        h.player("Janice", "A");
        // Growth reported through Retime; conflict set still has one entry
        // whose version advanced.
        assert_eq!(h.size(), 1);
        let item = h.cs.values().next().unwrap();
        assert!(item.version >= 2);
        assert_eq!(item.rows.len(), 2);
    }
}
