//! The four workloads: programs, sizes, and the seeded op-stream
//! generator. The op stream is a pure function of `(workload, seed,
//! scale)`; the engine only ever sees the generated facts.

use sorete_base::{Symbol, Value};

/// One rung of the ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    JoinChurn,
    FireTuple,
    CollectSet,
    ServeDurable,
}

pub const ALL: [Workload; 4] = [
    Workload::JoinChurn,
    Workload::FireTuple,
    Workload::CollectSet,
    Workload::ServeDurable,
];

const JOIN_CHURN: &str = "(literalize stock item qty)
(literalize customer id tier)
(literalize order id item cust qty)
(literalize shipment order kind)
(p fill
  (order ^id <o> ^item <i> ^cust <c> ^qty <q>)
  (stock ^item <i> ^qty >= <q>)
  (customer ^id <c> ^tier gold)
  -(shipment ^order <o>)
  -->
  (make shipment ^order <o> ^kind full))
(p backorder
  (order ^id <o> ^item <i>)
  -(stock ^item <i>)
  -(shipment ^order <o>)
  -->
  (make shipment ^order <o> ^kind back))
(p close
  (shipment ^order <o>)
  -(order ^id <o>)
  -->
  (remove 1))";

/// The paper's marking idiom: one firing per element plus a control rule.
const FIRE_TUPLE: &str = "(literalize item id s w)
(literalize phase p)
(p process-one (phase ^p sweep) (item ^s pending) --> (modify 2 ^s done))
(p finish (phase ^p sweep) -(item ^s pending) --> (remove 1))";

/// The same sweep done the paper's way: one firing, one action per member.
const COLLECT_SET: &str = "(literalize item id s w)
(literalize phase p)
(p process-all { [item ^s pending] <P> } :test ((count <P>) > 0)
  -->
  (set-modify <P> ^s done))";

const SERVE_DURABLE: &str = "(literalize sensor id zone)
(literalize reading sensor v)
(literalize mute zone)
(p alert
  (reading ^sensor <s> ^v > 90)
  (sensor ^id <s> ^zone <z>)
  -(mute ^zone <z>)
  -->
  (modify 1 ^v 0))
(p digest { [reading ^v <= 90] <R> } :test ((count <R>) >= 150)
  -->
  (set-remove <R>))";

/// Zones a `mute` can name; 4 of them are muted in any round.
const ZONES: u64 = 64;
/// Facts at the tail of a `serve_durable` batch that no rule removes (the
/// round's `retract` requests take them out again).
pub const MUTES_PER_ROUND: usize = 4;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinChurn => "join_churn",
            Workload::FireTuple => "fire_tuple",
            Workload::CollectSet => "collect_set",
            Workload::ServeDurable => "serve_durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn program(self) -> &'static str {
        match self {
            Workload::JoinChurn => JOIN_CHURN,
            Workload::FireTuple => FIRE_TUPLE,
            Workload::CollectSet => COLLECT_SET,
            Workload::ServeDurable => SERVE_DURABLE,
        }
    }
}

/// Workload sizes after `--scale` (sizes are divided by the scale; the
/// committed numbers are taken at scale 1).
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Facts asserted during set-up, before any rule fires.
    pub resident: usize,
    /// Facts asserted per round.
    pub batch: usize,
    /// `join_churn` only: stocks re-asserted with a new quantity per round.
    pub restock: usize,
}

impl Sizes {
    pub fn of(w: Workload, scale: usize) -> Sizes {
        let s = |n: usize| (n / scale).max(4);
        match w {
            // 31k stock + 7k customer + 33k order, and ≈ 24k shipments made
            // by the set-up run: WM ≈ 10^5.
            Workload::JoinChurn => Sizes {
                resident: s(71_000),
                batch: s(500),
                restock: s(50),
            },
            Workload::FireTuple | Workload::CollectSet => Sizes {
                resident: s(80_000),
                batch: s(2_000),
                restock: 0,
            },
            Workload::ServeDurable => Sizes {
                resident: s(40_000),
                batch: s(200).max(2 * MUTES_PER_ROUND),
                restock: 0,
            },
        }
    }

    /// Sizes for the output check's small replicas, which also run under
    /// the naive oracle. `serve_durable` keeps its batch: the `digest`
    /// rule's threshold is an absolute count.
    pub fn replica(self, w: Workload) -> Sizes {
        let s = |n: usize| (n / 100).max(4);
        Sizes {
            resident: s(self.resident),
            batch: match w {
                Workload::ServeDurable => self.batch,
                _ => s(self.batch),
            },
            restock: s(self.restock),
        }
    }
}

/// xorshift64*: the benchmark's only source of randomness.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 step so that small seeds give well-mixed states.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> i64 {
        (self.next_u64() % n) as i64
    }
}

/// A fact as the generator emits it: class plus slots, ready for
/// `assert_wme` or for JSON encoding.
#[derive(Clone, Debug)]
pub struct Fact {
    pub class: Symbol,
    pub slots: Vec<(Symbol, Value)>,
}

/// What one round feeds the system. Retractions are chosen by the driver
/// from tags it was handed back, by a fixed policy per workload.
#[derive(Clone, Debug, Default)]
pub struct RoundOps {
    /// Facts to assert, in order.
    pub asserts: Vec<Fact>,
    /// `join_churn`: (item, replacement stock fact) pairs; the old stock
    /// for the item is retracted and the new one asserted.
    pub restock: Vec<(usize, Fact)>,
}

/// Names interned once: generation sits between timed phases, and every
/// microsecond it takes is a microsecond of the budget not measured.
#[derive(Clone, Copy)]
struct Names {
    stock: Symbol,
    customer: Symbol,
    order: Symbol,
    item: Symbol,
    phase: Symbol,
    sensor: Symbol,
    reading: Symbol,
    mute: Symbol,
    id: Symbol,
    qty: Symbol,
    tier: Symbol,
    cust: Symbol,
    s: Symbol,
    w: Symbol,
    p: Symbol,
    zone: Symbol,
    v: Symbol,
    gold: Value,
    basic: Value,
    done: Value,
    pending: Value,
    sweep: Value,
}

impl Names {
    fn new() -> Names {
        let s = Symbol::new;
        Names {
            stock: s("stock"),
            customer: s("customer"),
            order: s("order"),
            item: s("item"),
            phase: s("phase"),
            sensor: s("sensor"),
            reading: s("reading"),
            mute: s("mute"),
            id: s("id"),
            qty: s("qty"),
            tier: s("tier"),
            cust: s("cust"),
            s: s("s"),
            w: s("w"),
            p: s("p"),
            zone: s("zone"),
            v: s("v"),
            gold: Value::sym("gold"),
            basic: Value::sym("basic"),
            done: Value::sym("done"),
            pending: Value::sym("pending"),
            sweep: Value::sym("sweep"),
        }
    }
}

/// The seeded generator for one workload.
pub struct Generator {
    workload: Workload,
    sizes: Sizes,
    rng: Rng,
    names: Names,
    next_id: i64,
    hash: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Generator {
    pub fn new(workload: Workload, seed: u64, sizes: Sizes) -> Generator {
        Generator {
            workload,
            sizes,
            rng: Rng::new(seed),
            names: Names::new(),
            next_id: 0,
            hash: FNV_OFFSET,
        }
    }

    pub fn sizes(&self) -> Sizes {
        self.sizes
    }

    /// FNV-1a over every fact emitted so far (class, slot names, values).
    pub fn stream_hash(&self) -> u64 {
        self.hash
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn emit(&mut self, class: Symbol, slots: Vec<(Symbol, Value)>) -> Fact {
        self.mix(class.as_str().as_bytes());
        for (a, v) in &slots {
            self.mix(a.as_str().as_bytes());
            self.mix(v.to_wire().as_bytes());
        }
        Fact { class, slots }
    }

    // join_churn shape: items 0..n_items are stocked out of an item range 3 %
    // wider (orders for the rest are back-ordered), three quarters of the
    // customers are gold, and stock covers an order's quantity 19 times in 20.
    fn n_items(&self) -> usize {
        self.sizes.resident * 31 / 71
    }
    fn n_customers(&self) -> usize {
        self.sizes.resident * 7 / 71
    }
    fn item_range(&self) -> u64 {
        (self.n_items() as u64 * 33 / 32).max(self.n_items() as u64 + 1)
    }

    fn int(&mut self, n: u64) -> Value {
        Value::Int(self.rng.below(n))
    }

    fn next_id(&mut self) -> Value {
        self.next_id += 1;
        Value::Int(self.next_id - 1)
    }

    fn stock(&mut self, item: usize) -> Fact {
        let n = self.names;
        let slots = vec![(n.item, Value::Int(item as i64)), (n.qty, self.int(100))];
        self.emit(n.stock, slots)
    }

    fn order(&mut self) -> Fact {
        let n = self.names;
        let slots = vec![
            (n.id, self.next_id()),
            (n.item, self.int(self.item_range())),
            (n.cust, self.int(self.n_customers() as u64)),
            (n.qty, Value::Int(1 + self.rng.below(10))),
        ];
        self.emit(n.order, slots)
    }

    fn item(&mut self, state: Value) -> Fact {
        let n = self.names;
        let slots = vec![(n.id, self.next_id()), (n.s, state), (n.w, self.int(1000))];
        self.emit(n.item, slots)
    }

    /// The facts set-up asserts before the first round. For `join_churn`
    /// the stocks come first, in item order, so the driver can index their
    /// tags by item.
    pub fn resident(&mut self) -> Vec<Fact> {
        let n = self.names;
        let mut out = Vec::with_capacity(self.sizes.resident);
        match self.workload {
            Workload::JoinChurn => {
                for item in 0..self.n_items() {
                    out.push(self.stock(item));
                }
                for id in 0..self.n_customers() {
                    let tier = if self.rng.below(4) < 3 {
                        n.gold
                    } else {
                        n.basic
                    };
                    let slots = vec![(n.id, Value::Int(id as i64)), (n.tier, tier)];
                    out.push(self.emit(n.customer, slots));
                }
                while out.len() < self.sizes.resident {
                    out.push(self.order());
                }
            }
            Workload::FireTuple | Workload::CollectSet => {
                for _ in 0..self.sizes.resident {
                    out.push(self.item(n.done));
                }
            }
            Workload::ServeDurable => {
                for id in 0..self.sizes.resident {
                    let slots = vec![(n.id, Value::Int(id as i64)), (n.zone, self.int(ZONES))];
                    out.push(self.emit(n.sensor, slots));
                }
            }
        }
        out
    }

    /// `(stocks, first_order)`: [`Self::resident`] starts with that many
    /// stocks and holds orders from that index on (`join_churn` only; no
    /// other workload tracks resident tags).
    pub fn resident_layout(&self) -> (usize, usize) {
        match self.workload {
            Workload::JoinChurn => (self.n_items(), self.n_items() + self.n_customers()),
            _ => (0, usize::MAX),
        }
    }

    /// The next round's ops.
    pub fn round(&mut self) -> RoundOps {
        let n = self.names;
        let mut ops = RoundOps::default();
        match self.workload {
            Workload::JoinChurn => {
                for _ in 0..self.sizes.batch {
                    ops.asserts.push(self.order());
                }
                for _ in 0..self.sizes.restock {
                    let item = self.rng.below(self.n_items() as u64) as usize;
                    // A round never restocks one item twice: the second
                    // retract would name a tag the first already took.
                    if ops.restock.iter().all(|(i, _)| *i != item) {
                        ops.restock.push((item, self.stock(item)));
                    }
                }
            }
            Workload::FireTuple | Workload::CollectSet => {
                for _ in 0..self.sizes.batch {
                    ops.asserts.push(self.item(n.pending));
                }
                if self.workload == Workload::FireTuple {
                    ops.asserts.push(self.emit(n.phase, vec![(n.p, n.sweep)]));
                }
            }
            Workload::ServeDurable => {
                for _ in 0..self.sizes.batch - MUTES_PER_ROUND {
                    let sensor = self.int(self.sizes.resident as u64);
                    let slots = vec![(n.sensor, sensor), (n.v, self.int(100))];
                    ops.asserts.push(self.emit(n.reading, slots));
                }
                for _ in 0..MUTES_PER_ROUND {
                    let slots = vec![(n.zone, self.int(ZONES))];
                    ops.asserts.push(self.emit(n.mute, slots));
                }
            }
        }
        ops
    }
}
