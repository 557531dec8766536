//! Interned strings.
//!
//! OPS5 programs compare symbols constantly (class names, attribute names,
//! symbolic values), so symbols are interned once into a process-wide table
//! and thereafter compared as `u32`s. Interned strings live for the life of
//! the process (they are leaked into the table), which is the standard
//! trade-off for rule engines whose vocabulary is fixed by the program text.
//!
//! Interning takes a lock; reading a symbol's text does not. Every id is
//! also published into an append-only table of [`OnceLock`] cells in
//! fixed-size chunks, allocated only when the first id in them is handed
//! out, so [`Symbol::as_str`] is two acquire loads. Ids past the table's
//! reach fall back to the interner's read lock.

use crate::hash::FxHashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Entries per lock-free chunk.
const CHUNK: usize = 256;

/// Chunk slots: the lock-free table covers the first `CHUNKS * CHUNK` ids
/// (2^20). Unit tests shrink it so they cross into the fallback.
const CHUNKS: usize = if cfg!(test) { 4 } else { 4096 };

type Chunk = Box<[OnceLock<&'static str>]>;

static TABLE: [OnceLock<Chunk>; CHUNKS] = [const { OnceLock::new() }; CHUNKS];

/// The published text of `id`, if it lies within the lock-free table.
#[inline]
fn published(id: usize) -> Option<&'static str> {
    let chunk = TABLE.get(id / CHUNK)?.get()?;
    chunk[id % CHUNK].get().copied()
}

/// Publish `id`'s text. Runs under the interner's write lock, so chunks
/// are created and cells set by one writer at a time.
fn publish(id: usize, s: &'static str) {
    if let Some(slot) = TABLE.get(id / CHUNK) {
        let chunk = slot.get_or_init(|| (0..CHUNK).map(|_| OnceLock::new()).collect());
        let _ = chunk[id % CHUNK].set(s);
    }
}

/// An interned string. Copyable, `Eq`/`Hash` in O(1).
///
/// ```
/// use sorete_base::Symbol;
/// let a = Symbol::new("player");
/// let b = Symbol::new("player");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "player");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

struct Interner {
    map: FxHashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: FxHashMap::default(),
            strings: Vec::with_capacity(256),
        })
    })
}

/// Read lock on the interner. Interning never panics while holding the
/// lock, so poisoning is unreachable; recover the guard anyway.
fn read_interner() -> RwLockReadGuard<'static, Interner> {
    interner().read().unwrap_or_else(|p| p.into_inner())
}

fn write_interner() -> RwLockWriteGuard<'static, Interner> {
    interner().write().unwrap_or_else(|p| p.into_inner())
}

impl Symbol {
    /// Intern `s`, returning its symbol. Idempotent.
    pub fn new(s: &str) -> Symbol {
        {
            let guard = read_interner();
            if let Some(&id) = guard.map.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = write_interner();
        if let Some(&id) = guard.map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = guard.strings.len() as u32;
        guard.strings.push(leaked);
        guard.map.insert(leaked, id);
        publish(id as usize, leaked);
        Symbol(id)
    }

    /// The interned string. Lock-free for the first 2^20 symbols.
    #[inline]
    pub fn as_str(self) -> &'static str {
        published(self.0 as usize).unwrap_or_else(|| read_interner().strings[self.0 as usize])
    }

    /// Raw interner index (stable for the process lifetime).
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }

    /// The symbol behind an id [`Symbol::id`] returned in this process.
    #[inline]
    pub(crate) fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Symbols order **lexically** (by their string), not by interner index,
/// so `foreach ... ascending` over symbolic values is deterministic and
/// human-sensible.
impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Symbol::new("abc"), Symbol::new("abc"));
        assert_ne!(Symbol::new("abc"), Symbol::new("abd"));
    }

    #[test]
    fn roundtrips_string() {
        assert_eq!(Symbol::new("team-A").as_str(), "team-A");
    }

    #[test]
    fn orders_lexically() {
        // Intern in reverse lexical order to ensure ids don't drive the order.
        let z = Symbol::new("zzz-order-test");
        let a = Symbol::new("aaa-order-test");
        assert!(a < z);
    }

    #[test]
    fn display_is_bare() {
        assert_eq!(Symbol::new("nil").to_string(), "nil");
    }

    #[test]
    fn concurrent_interning() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    for j in 0..100 {
                        let s = Symbol::new(&format!("sym-{}", j));
                        assert_eq!(s.as_str(), format!("sym-{}", j));
                        let _ = i;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Readers never take the lock writers hold, so a read racing a
    /// stream of fresh interns must still see every returned symbol's
    /// text — on both sides of the lock-free table's reach.
    #[test]
    fn reads_race_fresh_interning() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Mutex;
        let done = AtomicBool::new(false);
        let returned: Mutex<Vec<(Symbol, String)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..4)
                .map(|w| {
                    let returned = &returned;
                    s.spawn(move || {
                        for j in 0..600 {
                            let text = format!("race w{} #{} ^\"é\"", w, j);
                            let sym = Symbol::new(&text);
                            returned.lock().unwrap().push((sym, text));
                        }
                    })
                })
                .collect();
            for r in 0..4 {
                let (returned, done) = (&returned, &done);
                s.spawn(move || {
                    let mut i = r;
                    while !done.load(Ordering::Acquire) {
                        let picked = {
                            let v = returned.lock().unwrap();
                            (!v.is_empty()).then(|| v[i % v.len()].clone())
                        };
                        if let Some((sym, text)) = picked {
                            assert_eq!(sym.as_str(), text);
                        }
                        i = i.wrapping_mul(31).wrapping_add(7);
                    }
                });
            }
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        for (sym, text) in returned.into_inner().unwrap() {
            assert_eq!(sym.as_str(), text);
        }
    }

    #[test]
    fn ids_past_the_table_still_resolve() {
        let reach = (CHUNKS * CHUNK) as u32;
        let mut j = 0;
        let past = loop {
            let s = Symbol::new(&format!("past-reach-{}", j));
            if s.id() >= reach {
                break s;
            }
            j += 1;
        };
        assert!(published(past.id() as usize).is_none());
        assert_eq!(past.as_str(), format!("past-reach-{}", j));
    }
}
