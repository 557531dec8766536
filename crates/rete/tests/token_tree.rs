//! The slab-linked token tree against a plain `Vec` model.
//!
//! `TokenSlab` links children intrusively (list ends in the parent,
//! neighbours in the child). The model keeps one `Vec<TokId>` of children
//! per token — the representation the slab replaced — and the two must show
//! the same child order after every operation, slot reuse included. The
//! fan-out case pins the point of the links: unlinking costs the same
//! whatever the number of siblings.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use sorete_base::FxHashMap;
use sorete_rete::nodes::{NodeId, TokId, Token, TokenSlab};

#[derive(Clone, Debug)]
enum Op {
    /// Allocate a token under the (i mod live)-th live token and link it.
    Alloc(usize),
    /// `remove_child` on the (i mod live)-th live token; it stays live, out
    /// of the tree. A second unlink of the same token must change nothing.
    Unlink(usize),
    /// Link the (i mod detached)-th unlinked token back under its parent.
    Relink(usize),
    /// `pop_child` on the (i mod live)-th live token.
    Pop(usize),
    /// What the matcher's `delete_token` does to the (i mod live)-th live
    /// token: unlink it, tear its subtree down post-order, release all.
    Delete(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        10 => (0usize..64).prop_map(Op::Alloc),
        2 => (0usize..64).prop_map(Op::Unlink),
        2 => (0usize..64).prop_map(Op::Relink),
        2 => (0usize..64).prop_map(Op::Pop),
        3 => (0usize..64).prop_map(Op::Delete),
    ]
}

/// The slab plus the `Vec` model of the same tree.
struct Model {
    slab: TokenSlab,
    root: TokId,
    /// Live tokens, in allocation order.
    live: Vec<TokId>,
    children: FxHashMap<TokId, Vec<TokId>>,
    parent: FxHashMap<TokId, TokId>,
    /// Live tokens currently out of their parent's list.
    detached: Vec<TokId>,
    next_seq: u64,
}

impl Model {
    fn new() -> Model {
        let mut slab = TokenSlab::default();
        let root = slab.alloc(Token::new(None, None, NodeId::new(0), 0));
        Model {
            slab,
            root,
            live: vec![root],
            children: FxHashMap::default(),
            parent: FxHashMap::default(),
            detached: Vec::new(),
            next_seq: 1,
        }
    }

    fn alloc_under(&mut self, parent: TokId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tok = self
            .slab
            .alloc(Token::new(Some(parent), None, NodeId::new(0), seq));
        self.slab.push_child(parent, tok);
        assert!(!self.live.contains(&tok), "{tok:?} handed out twice");
        self.live.push(tok);
        self.parent.insert(tok, parent);
        self.children.entry(parent).or_default().push(tok);
    }

    /// Drop `tok` from its parent's model list; it is now detached.
    fn model_unlink(&mut self, tok: TokId) {
        if let Some(p) = self.parent.get(&tok) {
            let siblings = self.children.get_mut(p).unwrap();
            if let Some(pos) = siblings.iter().position(|&c| c == tok) {
                siblings.remove(pos);
                self.detached.push(tok);
            }
        }
    }

    /// Is `ancestor` on the parent chain of `tok` (or `tok` itself)?
    fn under(&self, mut tok: TokId, ancestor: TokId) -> bool {
        loop {
            if tok == ancestor {
                return true;
            }
            match self.parent.get(&tok) {
                Some(&p) => tok = p,
                None => return false,
            }
        }
    }

    /// Post-order teardown of `tok`'s subtree, the way the matcher does it:
    /// pop each child, recurse, release. Returns the release order.
    fn delete_subtree(&mut self, tok: TokId, released: &mut Vec<TokId>) {
        while let Some(c) = self.slab.pop_child(tok) {
            self.delete_subtree(c, released);
        }
        let t = self.slab.release(tok).expect("live until released");
        assert_eq!(t.parent(), self.parent.get(&tok).copied());
        assert!(self.slab.get(tok).is_none());
        released.push(tok);
    }

    fn model_post_order(&self, tok: TokId, out: &mut Vec<TokId>) {
        for &c in self.children.get(&tok).map_or(&[][..], |v| v) {
            self.model_post_order(c, out);
        }
        out.push(tok);
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Alloc(i) => self.alloc_under(self.live[i % self.live.len()]),
            Op::Unlink(i) => {
                let tok = self.live[i % self.live.len()];
                self.slab.remove_child(tok);
                self.model_unlink(tok);
                // Unlinking an unlinked (or parentless) token is a no-op.
                self.slab.remove_child(tok);
            }
            Op::Relink(i) if !self.detached.is_empty() => {
                let tok = self.detached.remove(i % self.detached.len());
                let parent = self.parent[&tok];
                self.slab.push_child(parent, tok);
                self.children.entry(parent).or_default().push(tok);
            }
            Op::Pop(i) => {
                let tok = self.live[i % self.live.len()];
                let expect = self.children.get(&tok).and_then(|v| v.first().copied());
                assert_eq!(self.slab.pop_child(tok), expect, "pop_child({tok:?})");
                if let Some(c) = expect {
                    self.model_unlink(c);
                }
            }
            Op::Delete(i) => {
                let tok = self.live[i % self.live.len()];
                // Keep the root, and keep every token a detached one still
                // names as its parent (the matcher never outlives a parent
                // either: deletion is post-order).
                if tok == self.root
                    || self
                        .detached
                        .iter()
                        .any(|&d| d != tok && self.under(self.parent[&d], tok))
                {
                    return;
                }
                let mut expect = Vec::new();
                self.model_post_order(tok, &mut expect);
                self.slab.remove_child(tok);
                let mut released = Vec::new();
                self.delete_subtree(tok, &mut released);
                assert_eq!(released, expect, "cascade order under {tok:?}");
                self.model_unlink(tok);
                for t in released {
                    self.live.retain(|&l| l != t);
                    self.detached.retain(|&d| d != t);
                    self.children.remove(&t);
                    self.parent.remove(&t);
                }
            }
            // Relink with nothing detached.
            _ => {}
        }
    }

    fn check(&self, after: &Op) {
        let mut linked = 0;
        for &tok in &self.live {
            let got: Vec<TokId> = self.slab.children(tok).collect();
            let want = self.children.get(&tok).cloned().unwrap_or_default();
            assert_eq!(got, want, "children of {tok:?} after {after:?}");
            linked += want.len() as u64;
        }
        assert_eq!(self.slab.live(), self.live.len());
        assert_eq!(self.slab.child_links(), linked);
        self.slab
            .validate_links()
            .unwrap_or_else(|e| panic!("after {after:?}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn child_lists_match_the_vec_model(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        let mut m = Model::new();
        for op in &ops {
            m.apply(op);
            m.check(op);
        }
        // Tear everything down; only the root's slot stays taken.
        for tok in std::mem::take(&mut m.detached) {
            let parent = m.parent[&tok];
            m.slab.push_child(parent, tok);
        }
        let mut released = Vec::new();
        while let Some(c) = m.slab.pop_child(m.root) {
            m.delete_subtree(c, &mut released);
        }
        prop_assert_eq!(released.len(), m.live.len() - 1);
        prop_assert_eq!(m.slab.live(), 1);
        prop_assert_eq!(m.slab.child_links(), 0);
        prop_assert!(m.slab.validate_links().is_ok());
    }
}

/// One parent, 200 000 children — the shape of the dummy top token over a
/// wide first CE. Unlinking them all must not depend on how many siblings
/// there are: linked, every unlink accesses exactly three tokens (the
/// child, and its neighbours or the parent at a list end), checked per
/// unlink, in every order. A `Vec` child list (`position` + `remove`)
/// visits the siblings it scans or shifts — up to 200 000 per unlink
/// here — and fails at its first unlink.
#[test]
fn unlinking_is_constant_time_at_fan_out_200_000() {
    const N: usize = 200_000;

    let fifo: Vec<usize> = (0..N).collect();
    let lifo: Vec<usize> = (0..N).rev().collect();
    let mut random = fifo.clone();
    let mut rng = TestRng::new(0x70ce_2000);
    for i in (1..N).rev() {
        random.swap(i, rng.below(i as u64 + 1) as usize);
    }

    for (name, order) in [("fifo", fifo), ("lifo", lifo), ("random", random)] {
        let mut slab = TokenSlab::default();
        let root = slab.alloc(Token::new(None, None, NodeId::new(0), 0));
        let kids: Vec<TokId> = (0..N)
            .map(|i| {
                let t = slab.alloc(Token::new(Some(root), None, NodeId::new(0), i as u64 + 1));
                slab.push_child(root, t);
                t
            })
            .collect();
        assert_eq!(slab.child_links(), N as u64);
        assert_eq!(slab.link_visits(), 3 * N as u64, "{name}: three per link");

        for (done, &i) in order.iter().enumerate() {
            let before = slab.link_visits();
            slab.remove_child(kids[i]);
            assert_eq!(
                slab.link_visits() - before,
                3,
                "{name}: unlink {done} of {N} siblings"
            );
            slab.release(kids[i]).expect("live until released");
            // Mid-way the survivors are still in arrival order.
            if done + 1 == N / 2 {
                let mut gone = vec![false; N];
                order[..N / 2].iter().for_each(|&g| gone[g] = true);
                let want = (0..N).filter(|&k| !gone[k]).map(|k| kids[k]);
                assert!(slab.children(root).eq(want), "{name}: order at half-way");
            }
        }
        assert_eq!(slab.live(), 1, "{name}");
        assert_eq!(slab.child_links(), 0, "{name}");
        assert_eq!(slab.link_visits(), 6 * N as u64, "{name}");
        slab.validate_links().unwrap();
    }
}
