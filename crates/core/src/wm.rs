//! Working memory: the engine-owned store of WMEs and class declarations.

use sorete_base::{BaseError, FxHashMap, Result, Symbol, TimeTag, Value, Wme};

/// Working memory: WMEs by time tag, plus `literalize` declarations.
///
/// Time tags are allocated monotonically; every `make` (including the
/// re-assertion half of `modify`) gets a fresh tag, exactly as in OPS5.
#[derive(Default)]
pub struct WorkingMemory {
    wmes: FxHashMap<TimeTag, Wme>,
    next_tag: u64,
    classes: FxHashMap<Symbol, Vec<Symbol>>,
}

impl WorkingMemory {
    /// Empty working memory.
    pub fn new() -> WorkingMemory {
        WorkingMemory::default()
    }

    /// Declare a class (`literalize`). Re-declaring replaces the attribute
    /// list.
    pub fn declare_class(&mut self, class: Symbol, attrs: Vec<Symbol>) {
        self.classes.insert(class, attrs);
    }

    /// Is the class declared?
    pub fn class_declared(&self, class: Symbol) -> bool {
        self.classes.contains_key(&class)
    }

    /// Build and store a WME, returning the stored one: the WME is built
    /// once, and callers that need it owned take it back through
    /// [`Self::remove`]. If the class was `literalize`d, every slot
    /// attribute must be declared; undeclared classes are accepted as-is
    /// (convenient for tests and embedded use).
    pub fn make(&mut self, class: Symbol, slots: Vec<(Symbol, Value)>) -> Result<&Wme> {
        if let Some(attrs) = self.classes.get(&class) {
            for (a, _) in &slots {
                if !attrs.contains(a) {
                    return Err(BaseError::UnknownAttribute {
                        class: class.as_str().to_owned(),
                        attr: a.as_str().to_owned(),
                    });
                }
            }
        }
        self.next_tag += 1;
        let tag = TimeTag::new(self.next_tag);
        Ok(self
            .wmes
            .entry(tag)
            .insert_entry(Wme::new(tag, class, slots))
            .into_mut())
    }

    /// Remove a WME, returning it.
    pub fn remove(&mut self, tag: TimeTag) -> Result<Wme> {
        let wme = self
            .wmes
            .remove(&tag)
            .ok_or(BaseError::UnknownTag(tag.raw()))?;
        Ok(wme)
    }

    /// Re-insert a previously removed WME under its **original** time tag.
    ///
    /// This is the rollback primitive: it does not allocate a tag, so a
    /// remove-then-restore round trip leaves `next_tag` untouched and the
    /// WME indistinguishable from one that never left. The tag must be
    /// dead and must not exceed the allocator's high-water mark.
    pub fn restore(&mut self, wme: Wme) {
        debug_assert!(!self.wmes.contains_key(&wme.tag), "restore over a live tag");
        debug_assert!(
            wme.tag.raw() <= self.next_tag,
            "restore of a never-allocated tag"
        );
        self.wmes.insert(wme.tag, wme);
    }

    /// Re-insert a WME under an **explicit** time tag, raising the tag
    /// allocator past it. This is the durability primitive: WAL recovery
    /// and checkpoint resume replay historic asserts whose tags were
    /// assigned by the original run, and later `make`s must continue
    /// after the highest replayed tag.
    pub fn replay(&mut self, wme: Wme) -> Result<()> {
        if self.wmes.contains_key(&wme.tag) {
            return Err(BaseError::Message(format!(
                "replayed assert collides with live time tag {}",
                wme.tag.raw()
            )));
        }
        self.next_tag = self.next_tag.max(wme.tag.raw());
        self.wmes.insert(wme.tag, wme);
        Ok(())
    }

    /// Raise the tag allocator to at least `mark` (checkpoint resume:
    /// tags of WMEs that died before the checkpoint must not be reused).
    pub fn raise_tag_mark(&mut self, mark: u64) {
        self.next_tag = self.next_tag.max(mark);
    }

    /// Current high-water mark of the tag allocator.
    pub fn tag_mark(&self) -> u64 {
        self.next_tag
    }

    /// Roll the tag allocator back to an earlier [`Self::tag_mark`]. Only
    /// legal when every tag above the mark is dead (i.e. after a rollback
    /// retracted everything the aborted firing asserted), so a rolled-back
    /// firing leaves no gap in the tag sequence.
    pub fn reset_tag_mark(&mut self, mark: u64) {
        debug_assert!(mark <= self.next_tag);
        debug_assert!(
            self.wmes.keys().all(|t| t.raw() <= mark),
            "live tag above the rollback mark"
        );
        self.next_tag = mark;
    }

    /// Read a WME.
    pub fn get(&self, tag: TimeTag) -> Option<&Wme> {
        self.wmes.get(&tag)
    }

    /// Number of WMEs.
    pub fn len(&self) -> usize {
        self.wmes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.wmes.is_empty()
    }

    /// Iterate all WMEs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Wme> {
        self.wmes.values()
    }

    /// All WMEs sorted by time tag (for reproducible dumps).
    pub fn dump(&self) -> Vec<&Wme> {
        let mut v: Vec<&Wme> = self.wmes.values().collect();
        v.sort_by_key(|w| w.tag);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_monotonic() {
        let mut wm = WorkingMemory::new();
        let a = wm.make(Symbol::new("c"), vec![]).unwrap().tag;
        let b = wm.make(Symbol::new("c"), vec![]).unwrap().tag;
        assert!(b > a);
        assert_eq!(wm.len(), 2);
    }

    #[test]
    fn literalize_validates_attributes() {
        let mut wm = WorkingMemory::new();
        wm.declare_class(
            Symbol::new("player"),
            vec![Symbol::new("name"), Symbol::new("team")],
        );
        assert!(wm
            .make(
                Symbol::new("player"),
                vec![(Symbol::new("name"), Value::sym("x"))]
            )
            .is_ok());
        let err = wm
            .make(
                Symbol::new("player"),
                vec![(Symbol::new("wings"), Value::Int(2))],
            )
            .unwrap_err();
        assert!(err.to_string().contains("wings"));
        // Undeclared classes are lenient.
        assert!(wm
            .make(
                Symbol::new("adhoc"),
                vec![(Symbol::new("x"), Value::Int(1))]
            )
            .is_ok());
    }

    #[test]
    fn remove_unknown_tag_errors() {
        let mut wm = WorkingMemory::new();
        assert!(wm.remove(TimeTag::new(99)).is_err());
        let w = wm.make(Symbol::new("c"), vec![]).unwrap().tag;
        assert!(wm.remove(w).is_ok());
        assert!(wm.remove(w).is_err(), "double remove");
    }

    #[test]
    fn restore_reuses_original_tag() {
        let mut wm = WorkingMemory::new();
        let a = wm
            .make(Symbol::new("c"), vec![(Symbol::new("x"), Value::Int(1))])
            .unwrap()
            .tag;
        let b = wm.make(Symbol::new("c"), vec![]).unwrap().tag;
        let gone = wm.remove(a).unwrap();
        wm.restore(gone);
        assert_eq!(wm.get(a).unwrap().get(Symbol::new("x")), Value::Int(1));
        // The allocator was not consulted: the next make continues after b.
        let c = wm.make(Symbol::new("c"), vec![]).unwrap().tag;
        assert_eq!(c.raw(), b.raw() + 1);
    }

    #[test]
    fn tag_mark_round_trip() {
        let mut wm = WorkingMemory::new();
        wm.make(Symbol::new("c"), vec![]).unwrap();
        let mark = wm.tag_mark();
        let b = wm.make(Symbol::new("c"), vec![]).unwrap().tag;
        wm.remove(b).unwrap();
        wm.reset_tag_mark(mark);
        // The re-allocated tag repeats the rolled-back one.
        let c = wm.make(Symbol::new("c"), vec![]).unwrap().tag;
        assert_eq!(c, b);
    }

    #[test]
    fn dump_is_tag_ordered() {
        let mut wm = WorkingMemory::new();
        for _ in 0..5 {
            wm.make(Symbol::new("c"), vec![]).unwrap();
        }
        let tags: Vec<u64> = wm.dump().iter().map(|w| w.tag.raw()).collect();
        assert_eq!(tags, vec![1, 2, 3, 4, 5]);
    }
}
