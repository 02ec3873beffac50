//! Instances of the distributed multiplication task and data placement.
//!
//! An [`Instance`] is the structural part of the task: the indicator
//! matrices `Â`, `B̂`, `X̂` (§2.1) plus a [`Placement`] assigning each input
//! and output element to a computer. The paper's default is "computer `i`
//! holds row `i` of `A`, row `i` of `B`, and reports row `i` of `X`"; §2
//! notes any placement is equivalent up to `O(d)` extra rounds, and for
//! average-sparse matrices (where single rows may be huge) we use the
//! balanced placement that gives every computer at most `⌈nnz/n⌉` elements.

use std::collections::HashMap;

use lowband_matrix::{SparseMatrix, Support};
use lowband_model::{
    Key, LinkedMachine, LinkedSchedule, Machine, NodeId, PackedLinkedMachine, PackedSemiring,
    Semiring,
};

/// Assignment of the elements of one matrix to computers.
#[derive(Clone, Debug)]
pub enum OwnerMap {
    /// Element `(i, j)` lives on computer `i` (row placement).
    ByRow,
    /// Element `(i, j)` lives on computer `j` (column placement).
    ByCol,
    /// Explicit per-entry assignment.
    Explicit(HashMap<(u32, u32), NodeId>),
}

impl OwnerMap {
    /// The computer holding element `(i, j)`.
    pub fn owner(&self, i: u32, j: u32) -> NodeId {
        match self {
            OwnerMap::ByRow => NodeId(i),
            OwnerMap::ByCol => NodeId(j),
            OwnerMap::Explicit(map) => *map
                .get(&(i, j))
                .unwrap_or_else(|| panic!("no owner recorded for entry ({i},{j})")),
        }
    }

    /// Balanced assignment: entries in row-major order, `⌈nnz/n⌉` per
    /// computer.
    pub fn balanced(support: &Support, n: usize) -> OwnerMap {
        let per = support.nnz().div_ceil(n).max(1);
        let mut map = HashMap::with_capacity(support.nnz());
        for (idx, (i, j)) in support.iter().enumerate() {
            map.insert((i, j), NodeId((idx / per) as u32));
        }
        OwnerMap::Explicit(map)
    }

    /// Largest number of elements of `support` any computer holds.
    pub fn max_load(&self, support: &Support, n: usize) -> usize {
        let mut load = vec![0usize; n];
        for (i, j) in support.iter() {
            load[self.owner(i, j).index()] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }
}

/// Placement of `A`, `B` and `X` elements on the `n` computers.
#[derive(Clone, Debug)]
pub struct Placement {
    /// Owner of each `A` element.
    pub a: OwnerMap,
    /// Owner of each `B` element.
    pub b: OwnerMap,
    /// Owner (reporter) of each `X` element.
    pub x: OwnerMap,
}

impl Placement {
    /// The paper's default: computer `i` holds row `i` of `A`, row `i` of
    /// `B` (i.e. `B` entries `(j, k)` live on computer `j`), and reports row
    /// `i` of `X`.
    pub fn by_rows() -> Placement {
        Placement {
            a: OwnerMap::ByRow,
            b: OwnerMap::ByRow,
            x: OwnerMap::ByRow,
        }
    }

    /// Balanced placement: each computer holds `⌈nnz/n⌉` elements of each
    /// matrix — the right choice for `AS`/`GM` supports whose rows can be
    /// arbitrarily heavy.
    pub fn balanced(ahat: &Support, bhat: &Support, xhat: &Support, n: usize) -> Placement {
        Placement {
            a: OwnerMap::balanced(ahat, n),
            b: OwnerMap::balanced(bhat, n),
            x: OwnerMap::balanced(xhat, n),
        }
    }
}

/// The structural description of one multiplication task: supports plus
/// placement on a network of `n` computers.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Network size (= matrix dimension in the paper's setting).
    pub n: usize,
    /// Indicator of `A` (`n × n`).
    pub ahat: Support,
    /// Indicator of `B` (`n × n`).
    pub bhat: Support,
    /// Entries of interest in `X` (`n × n`).
    pub xhat: Support,
    /// Data placement.
    pub placement: Placement,
}

impl Instance {
    /// Build an instance with the paper's row placement.
    pub fn new(ahat: Support, bhat: Support, xhat: Support) -> Instance {
        let n = ahat.rows();
        assert_eq!(ahat.cols(), n, "instance matrices must be square n×n");
        assert_eq!((bhat.rows(), bhat.cols()), (n, n));
        assert_eq!((xhat.rows(), xhat.cols()), (n, n));
        Instance {
            n,
            ahat,
            bhat,
            xhat,
            placement: Placement::by_rows(),
        }
    }

    /// Build an instance with balanced placement.
    pub fn balanced(ahat: Support, bhat: Support, xhat: Support) -> Instance {
        let mut inst = Instance::new(ahat, bhat, xhat);
        inst.placement = Placement::balanced(&inst.ahat, &inst.bhat, &inst.xhat, inst.n);
        inst
    }

    /// Largest number of `A` elements on any computer.
    pub fn max_a_load(&self) -> usize {
        self.placement.a.max_load(&self.ahat, self.n)
    }

    /// Largest number of `B` elements on any computer.
    pub fn max_b_load(&self) -> usize {
        self.placement.b.max_load(&self.bhat, self.n)
    }

    /// Largest number of `X` elements on any computer.
    pub fn max_x_load(&self) -> usize {
        self.placement.x.max_load(&self.xhat, self.n)
    }

    /// Load the runtime values of `A` and `B` into any executor backend
    /// according to the placement.
    pub fn load_values<S: Semiring, M: ValueStore<S>>(
        &self,
        machine: &mut M,
        a: &SparseMatrix<S>,
        b: &SparseMatrix<S>,
    ) {
        assert_eq!(a.support(), &self.ahat, "A values must match Â");
        assert_eq!(b.support(), &self.bhat, "B values must match B̂");
        for (i, j, v) in a.iter() {
            machine.load(
                self.placement.a.owner(i, j),
                Key::a(u64::from(i), u64::from(j)),
                v.clone(),
            );
        }
        for (j, k, v) in b.iter() {
            machine.load(
                self.placement.b.owner(j, k),
                Key::b(u64::from(j), u64::from(k)),
                v.clone(),
            );
        }
    }

    /// Load the runtime values of `A` and `B` into a fresh hash-map machine
    /// according to the placement.
    pub fn load_machine<S: Semiring>(
        &self,
        a: &SparseMatrix<S>,
        b: &SparseMatrix<S>,
    ) -> Machine<S> {
        let mut m = Machine::new(self.n);
        self.load_values(&mut m, a, b);
        m
    }

    /// Load the runtime values of `A` and `B` into a fresh slot-store
    /// machine bound to `schedule`.
    pub fn load_linked<'s, S: Semiring>(
        &self,
        a: &SparseMatrix<S>,
        b: &SparseMatrix<S>,
        schedule: &'s LinkedSchedule,
    ) -> LinkedMachine<'s, S> {
        let mut m = LinkedMachine::new(schedule);
        self.load_values(&mut m, a, b);
        m
    }

    /// Reload an existing slot-store machine with a fresh pair of value
    /// matrices: clear every slot in place
    /// ([`LinkedMachine::reset_values`]) and load the new values through
    /// the placement. The machine's slot vectors are reused, so a batch of
    /// value-sets streams through one allocation of the dense stores.
    pub fn reload_linked<S: Semiring>(
        &self,
        machine: &mut LinkedMachine<'_, S>,
        a: &SparseMatrix<S>,
        b: &SparseMatrix<S>,
    ) {
        debug_assert_eq!(
            machine.n(),
            self.n,
            "machine linked against a different plan than this instance \
             (stale machine reused across CompiledPlans?)"
        );
        machine.reset_values();
        self.load_values(machine, a, b);
    }

    /// Read the computed output `X` off any executor backend (entries of
    /// interest that received no contribution are zero).
    pub fn extract_x_from<S: Semiring, M: ValueStore<S>>(&self, machine: &M) -> SparseMatrix<S> {
        let mut out = SparseMatrix::zeros(self.xhat.clone());
        self.extract_x_into(machine, &mut out);
        out
    }

    /// [`Instance::extract_x_from`] overwriting a caller-owned matrix on
    /// the `X̂` support — the allocation-free form batch verification
    /// loops stream through one scratch output.
    pub fn extract_x_into<S: Semiring, M: ValueStore<S>>(
        &self,
        machine: &M,
        out: &mut SparseMatrix<S>,
    ) {
        debug_assert_eq!(out.support(), &self.xhat, "output support must be X̂");
        out.refill_from_fn(|i, k| {
            machine.get_or_zero(
                self.placement.x.owner(i, k),
                Key::x(u64::from(i), u64::from(k)),
            )
        });
    }

    /// Read the computed output `X` off a hash-map machine.
    pub fn extract_x<S: Semiring>(&self, machine: &Machine<S>) -> SparseMatrix<S> {
        self.extract_x_from(machine)
    }
}

/// A per-node keyed value store an instance can be loaded into and read
/// back from: both scalar executor backends (hash-map, linked slot-store)
/// qualify.
pub trait ValueStore<S: Semiring> {
    /// Place `value` under `key` at `node`.
    fn load(&mut self, node: NodeId, key: Key, value: S);
    /// Read the value under `key` at `node`, or semiring zero.
    fn get_or_zero(&self, node: NodeId, key: Key) -> S;
}

impl<S: Semiring> ValueStore<S> for Machine<S> {
    fn load(&mut self, node: NodeId, key: Key, value: S) {
        Machine::load(self, node, key, value);
    }
    fn get_or_zero(&self, node: NodeId, key: Key) -> S {
        Machine::get_or_zero(self, node, key)
    }
}

impl<S: Semiring> ValueStore<S> for LinkedMachine<'_, S> {
    fn load(&mut self, node: NodeId, key: Key, value: S) {
        LinkedMachine::load(self, node, key, value);
    }
    fn get_or_zero(&self, node: NodeId, key: Key) -> S {
        LinkedMachine::get_or_zero(self, node, key)
    }
}

/// Where one support entry's value lives in a linked machine: its owner
/// node plus either the interned dense slot or (for keys the schedule
/// never touches) the side-map key.
#[derive(Clone, Copy, Debug)]
enum SiteRef {
    /// Interned: `slots[node][slot]`.
    Slot(u32),
    /// Not interned by the schedule: lives in the `extra` side map.
    Extra(Key),
}

/// Precomputed load/extract sites for one (instance, linked schedule)
/// pair: the owner node and interned slot of every `A`, `B` and `X̂`
/// support entry, in support iteration order ([`SparseMatrix::iter`]
/// order). Pure structure — no value type anywhere — so one `PackedSites`
/// serves every lane of every value-set streamed through the plan, making
/// per-member loading lookup-free: the placement lookups and
/// [`LinkedSchedule::slot_of`] searches that [`Instance::load_values`]
/// pays per value-set are paid once per plan here, the packed analogue of
/// what linking does for the executor's inner loop.
#[derive(Clone, Debug)]
pub struct PackedSites {
    a: Vec<(NodeId, SiteRef)>,
    b: Vec<(NodeId, SiteRef)>,
    x: Vec<(NodeId, SiteRef)>,
}

impl PackedSites {
    /// Resolve every support entry of `inst` against `schedule`'s interned
    /// layout.
    pub fn new(inst: &Instance, schedule: &LinkedSchedule) -> PackedSites {
        let resolve = |owner: &OwnerMap, support: &Support, key: fn(u64, u64) -> Key| {
            support
                .iter()
                .map(|(i, j)| {
                    let node = owner.owner(i, j);
                    let key = key(u64::from(i), u64::from(j));
                    let site = match schedule.slot_of(node, key) {
                        Some(slot) => SiteRef::Slot(slot),
                        None => SiteRef::Extra(key),
                    };
                    (node, site)
                })
                .collect()
        };
        PackedSites {
            a: resolve(&inst.placement.a, &inst.ahat, Key::a),
            b: resolve(&inst.placement.b, &inst.bhat, Key::b),
            x: resolve(&inst.placement.x, &inst.xhat, Key::x),
        }
    }

    /// Load one lane's value matrices through the precomputed sites —
    /// equivalent to [`Instance::load_values`] through a
    /// [`PackedLaneStore`], minus every per-entry placement lookup and
    /// slot search.
    pub fn load_lane<S: PackedSemiring<LANES>, const LANES: usize>(
        &self,
        machine: &mut PackedLinkedMachine<'_, S, LANES>,
        lane: usize,
        a: &SparseMatrix<S>,
        b: &SparseMatrix<S>,
    ) {
        debug_assert_eq!(a.support().nnz(), self.a.len(), "A support mismatch");
        debug_assert_eq!(b.support().nnz(), self.b.len(), "B support mismatch");
        for (sites, matrix) in [(&self.a, a), (&self.b, b)] {
            for (&(node, site), (_, _, v)) in sites.iter().zip(matrix.iter()) {
                match site {
                    SiteRef::Slot(slot) => machine.load_lane_slot(node, slot, lane, v.clone()),
                    SiteRef::Extra(key) => machine.load_lane(node, key, lane, v.clone()),
                }
            }
        }
    }

    /// Read one lane's computed `X` off the machine through the
    /// precomputed sites — equivalent to [`Instance::extract_x_from`]
    /// through a [`PackedLaneStore`], minus every per-entry placement
    /// lookup and slot search.
    pub fn extract_lane<S: PackedSemiring<LANES>, const LANES: usize>(
        &self,
        xhat: &Support,
        machine: &PackedLinkedMachine<'_, S, LANES>,
        lane: usize,
    ) -> SparseMatrix<S> {
        let mut out = SparseMatrix::zeros(xhat.clone());
        self.extract_lane_into(machine, lane, &mut out);
        out
    }

    /// [`PackedSites::extract_lane`] overwriting a caller-owned matrix on
    /// the `X̂` support, so per-lane extraction in a batch reuses one
    /// scratch allocation.
    pub fn extract_lane_into<S: PackedSemiring<LANES>, const LANES: usize>(
        &self,
        machine: &PackedLinkedMachine<'_, S, LANES>,
        lane: usize,
        out: &mut SparseMatrix<S>,
    ) {
        debug_assert_eq!(out.support().nnz(), self.x.len(), "X̂ support mismatch");
        let mut sites = self.x.iter();
        out.refill_from_fn(|_, _| {
            let &(node, site) = sites.next().expect("one site per X̂ entry");
            match site {
                SiteRef::Slot(slot) => machine.get_or_zero_lane_slot(node, slot, lane),
                SiteRef::Extra(key) => machine.get_or_zero_lane(node, key, lane),
            }
        });
    }
}

/// One lane of a [`PackedLinkedMachine`] viewed as a scalar [`ValueStore`]:
/// lets the instance-loading and output-extraction paths address a single
/// batch member of the struct-of-arrays executor exactly as they address a
/// scalar machine. The packed batch runner loads lane `k` of each group
/// through `PackedLaneStore { machine, lane: k }`, runs the plane machine
/// once, then extracts each lane's output through the same adapter.
pub struct PackedLaneStore<'m, 's, S: PackedSemiring<LANES>, const LANES: usize> {
    /// The shared plane machine.
    pub machine: &'m mut PackedLinkedMachine<'s, S, LANES>,
    /// Which batch member this view addresses (`< LANES`).
    pub lane: usize,
}

impl<S: PackedSemiring<LANES>, const LANES: usize> ValueStore<S>
    for PackedLaneStore<'_, '_, S, LANES>
{
    fn load(&mut self, node: NodeId, key: Key, value: S) {
        self.machine.load_lane(node, key, self.lane, value);
    }
    fn get_or_zero(&self, node: NodeId, key: Key) -> S {
        self.machine.get_or_zero_lane(node, key, self.lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowband_model::algebra::Nat;

    #[test]
    fn row_placement_owners() {
        let p = Placement::by_rows();
        assert_eq!(p.a.owner(3, 5), NodeId(3));
        assert_eq!(p.b.owner(3, 5), NodeId(3));
        assert_eq!(p.x.owner(7, 0), NodeId(7));
    }

    #[test]
    fn balanced_placement_bounds_load() {
        // One very heavy row: row placement puts 16 entries on computer 0;
        // balanced placement spreads them with max load ⌈16/8⌉ = 2.
        let s = Support::from_entries(8, 8, (0..8u32).flat_map(|j| [(0, j), (1, j)]));
        let by_row = OwnerMap::ByRow;
        assert_eq!(by_row.max_load(&s, 8), 8);
        let bal = OwnerMap::balanced(&s, 8);
        assert_eq!(bal.max_load(&s, 8), 2);
    }

    #[test]
    fn load_and_extract_roundtrip() {
        let ahat = Support::identity(4);
        let bhat = Support::identity(4);
        let xhat = Support::identity(4);
        let inst = Instance::new(ahat.clone(), bhat, xhat);
        let a: SparseMatrix<Nat> = SparseMatrix::from_fn(ahat.clone(), |i, _| Nat(u64::from(i)));
        let b: SparseMatrix<Nat> = SparseMatrix::from_fn(ahat, |i, _| Nat(u64::from(i) * 2));
        let m = inst.load_machine(&a, &b);
        assert_eq!(m.get(NodeId(2), Key::a(2, 2)), Some(&Nat(2)));
        assert_eq!(m.get(NodeId(3), Key::b(3, 3)), Some(&Nat(6)));
        // No X computed yet — extraction yields zeros.
        let x = inst.extract_x(&m);
        assert_eq!(x.get(1, 1), Nat(0));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rectangular_instance_rejected() {
        let _ = Instance::new(
            Support::empty(3, 4),
            Support::empty(4, 4),
            Support::empty(3, 4),
        );
    }

    #[test]
    fn column_placement() {
        let m = OwnerMap::ByCol;
        assert_eq!(m.owner(3, 5), NodeId(5));
    }
}
