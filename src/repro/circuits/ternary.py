"""Packed two-word ternary (01X) simulation core.

Every simulator of the package -- plain 0/1 simulation, three-valued PODEM
simulation and pattern-parallel fault simulation -- evaluates the same
topologically ordered gate plan.  This module is the one engine behind all
of them.

Representation
--------------
A ternary signal is packed into **two words per net**: a *value* word and a
*care* word.  Bit ``p`` of the care word is 0 when the signal is ``X`` under
pattern ``p`` and 1 when it carries the known value stored in bit ``p`` of
the value word (value bits are always masked to 0 where the care bit is 0,
so equal states compare equal).  Words are plain Python integers, so the
pattern width is arbitrary: PODEM packs the good and the faulty machine into
a 2-bit word (its event engine combines the two words of a net into one
4-bit state), fault simulation packs hundreds of patterns, and the uint64
blocks of the numpy embedding-matching layer are just this encoding sliced
into 64-bit words (see
:meth:`repro.testdata.test_set.TestSet.packed_matrices`).

Two-valued simulation is the ``care == mask`` special case; its inner loop
drops the care accumulator entirely, which keeps the binary fault-simulation
kernel at the exact operation count it had before this core existed.

Gate rules (the standard pessimistic 01X algebra)
-------------------------------------------------
* AND: known-0 when any input is known-0, known-1 when all inputs are
  known-1, else X -- ``care = zero_any | one_all``, ``value = one_all``.
* OR: dual of AND -- ``care = one_any | zero_all``, ``value = one_any``.
* XOR: known only when every input is known -- ``care = AND(cares)``,
  ``value = XOR(values) & care``.
* BUF: pass-through.  Inverting types flip ``value`` inside ``care``.

Fault overlays
--------------
Single stuck-at faults are injected as an *overlay*: after a net's gate is
evaluated (or before the plan runs, for primary-input sites), the net is
forced to ``care |= force_mask`` / ``value = stuck`` on the overlay
patterns only.  The same overlay drives PODEM's faulty machine (bit 1 of
its 2-bit word) and the dense reference path of the fault simulator.

The compiled plan (:func:`packed_plan`) indexes nets by position --
primary inputs first, then gate outputs in evaluation order -- so the hot
loops run on flat lists instead of name dictionaries.

Every plan also carries a **cone table** (:meth:`PackedPlan.cone_rows`,
:meth:`PackedPlan.fault_region`): per net, the rows of its fanout cone and
its fault region, the fanin closure of that cone.  A stuck-at fault can
only change its cone, and a test for it can only depend on its region, so
the fault simulator evaluates cones and PODEM's engine never leaves the
region.

Besides the two batch evaluators (:func:`eval_binary`, :func:`eval_ternary`)
the module provides :class:`TernaryEventEngine`, PODEM's dual-machine state:
one 4-bit state per net, ``(value << 2) | care`` of the 2-bit good/faulty
words, kept alive between queries and updated incrementally when one primary
input changes.  Only the dirty fanout cone is re-evaluated, through per-level
bucket queues, each row as one lookup in a combined state table, and every
overwrite is recorded in an undo log so a caller (PODEM's backtracking search)
can rewind in O(changed cone).  While a fault overlay is installed the engine
is fenced to the fault's region.  This module is the only one that knows the
state layout: PODEM reads states through the 16-entry predicates
:data:`CARRIES_DIFFERENCE`, :data:`GOOD_KNOWN`, :data:`BOTH_KNOWN` and
:data:`GOOD_VALUE`.
"""

from __future__ import annotations

import sys
from itertools import compress, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.circuits.netlist import GateType, Netlist
from repro.lru import LRUCache

#: Opcodes of the compiled evaluation plans (shared by every simulator).
OP_AND, OP_OR, OP_XOR, OP_BUF = 0, 1, 2, 3

_OPCODE = {
    GateType.AND: OP_AND,
    GateType.NAND: OP_AND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_OR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XOR,
    GateType.BUF: OP_BUF,
    GateType.NOT: OP_BUF,
}

#: Plan rows with integer net indices: ``(output, opcode, inputs, inverting)``.
IndexedRow = Tuple[int, int, Tuple[int, ...], bool]

#: Rows of :class:`TernaryEventEngine`: ``(output, arity, a, b, c, table)``.
#: A row of one to three inputs carries its operand net indices (unused
#: trailing ones are -1) and its combined state table (see
#: :func:`_state_table`); a wider row has arity 0 and no table, and the
#: engine reduces it over the plan row's input tuple.
TableRow = Tuple[int, int, int, int, int, Optional[List[int]]]

#: Combined state tables, keyed by ``(opcode, inverting, arity)``.  Shared
#: process-wide; 14 keys exist (BUF/NOT, and AND/OR/XOR either way round at
#: two and three inputs), so the bound never evicts: the LRUCache is the
#: bounded-cache discipline, not a working-set limit.
_TABLE_CACHE: LRUCache = LRUCache(32)


def _row_state(op: int, inverting: bool, operands: Sequence[int]) -> int:
    """One row's 4-bit state from its operands' states.

    Decodes each operand state ``(value << 2) | care`` into its 2-bit words,
    reduces them with the row algebra of :func:`eval_ternary` at mask
    ``0b11`` and encodes the result.
    """
    if op == OP_AND:
        zero_any = 0
        one_all = 0b11
        for state in operands:
            value = state >> 2
            zero_any |= state & 0b11 & ~value
            one_all &= value
        care = zero_any | one_all
        value = one_all & care
    elif op == OP_OR:
        one_any = 0
        zero_all = 0b11
        for state in operands:
            value = state >> 2
            one_any |= value
            zero_all &= state & 0b11 & ~value
        care = one_any | zero_all
        value = one_any & care
    elif op == OP_XOR:
        care = 0b11
        value = 0
        for state in operands:
            care &= state
            value ^= state >> 2
        value &= care
    else:
        care = operands[0] & 0b11
        value = operands[0] >> 2
    if inverting:
        value = ~value & care
    return (value << 2) | care


def _state_table(op: int, inverting: bool, arity: int) -> List[int]:
    """The output state of a row for every key of operand states.

    The key of operands ``s_a, s_b, s_c`` is ``(s_a << 8) | (s_b << 4) |
    s_c``, shortened to the row's arity, so a table has 16, 256 or 4,096
    entries and a row evaluates as one lookup.
    """
    table = _TABLE_CACHE.get((op, inverting, arity))
    if table is None:
        table = [
            _row_state(op, inverting, operands)
            for operands in product(range(16), repeat=arity)
        ]
        _TABLE_CACHE.put((op, inverting, arity), table)
    return table


def _force_table(force_mask: int, force_value: int) -> Tuple[int, ...]:
    """Every state with the overlay ``(force_mask, force_value)`` applied."""
    return tuple(
        ((((state >> 2) & ~force_mask) | (force_value & force_mask)) << 2)
        | (state & 0b11)
        | force_mask
        for state in range(16)
    )


def _per_state(of_words: Callable[[int, int], object]) -> Tuple:
    """``of_words(value, care)`` of every 4-bit state, indexed by state."""
    return tuple(of_words(state >> 2, state & 0b11) for state in range(16))


#: Predicates of PODEM's dual-machine states, indexed by state.  Bit 0 of
#: each 2-bit word is the good machine, bit 1 the faulty one.
BOTH_KNOWN = _per_state(lambda value, care: care == 0b11)
GOOD_KNOWN = _per_state(lambda value, care: bool(care & 0b01))
#: Both machines known and different: the net carries the fault effect.
CARRIES_DIFFERENCE = _per_state(
    lambda value, care: care == 0b11 and bool((value ^ (value >> 1)) & 1)
)
#: The good machine's value, None while it is X.
GOOD_VALUE = _per_state(lambda value, care: value & 1 if care & 0b01 else None)


def _mask_bits(mask: int, width: int) -> str:
    """``mask`` as ``"0"``/``"1"`` characters, lowest bit first, ``width`` long."""
    return bin(mask)[:1:-1].ljust(width, "0")


class PackedPlan:
    """The compiled, integer-indexed evaluation plan of one netlist.

    Net index order is :meth:`Netlist.nets`: primary inputs first (in input
    order), then gate outputs in topological order -- so ``rows`` can be
    evaluated front to back over one flat state list.
    """

    __slots__ = (
        "netlist",
        "nets",
        "index",
        "rows",
        "num_inputs",
        "num_nets",
        "output_indices",
        "is_output",
        "fanout",
        "reader_rows",
        "row_levels",
        "num_levels",
        "_table_rows",
        "_cone_bits",
        "_region_bits",
        "_cones",
    )

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.nets: List[str] = netlist.nets()
        self.index: Dict[str, int] = {net: i for i, net in enumerate(self.nets)}
        self.num_inputs = netlist.num_inputs
        self.num_nets = len(self.nets)
        index = self.index
        # Resolving gate type to an opcode + inverting flag once per netlist
        # (and not per gate visit) is what keeps every packed inner loop to
        # a few integer operations per gate.
        self.rows: List[IndexedRow] = [
            (
                index[gate.output],
                _OPCODE[gate.gate_type],
                tuple(index[net] for net in gate.inputs),
                gate.gate_type.inverting,
            )
            for gate in netlist.gate_sequence()
        ]
        self.output_indices: Tuple[int, ...] = tuple(
            index[net] for net in netlist.outputs
        )
        # Primary-output membership by net index (1 = output).
        self.is_output = bytearray(self.num_nets)
        for output in self.output_indices:
            self.is_output[output] = 1
        fanout = netlist.fanout()
        self.fanout: List[Tuple[int, ...]] = [
            tuple(index[reader] for reader in fanout[net]) for net in self.nets
        ]
        # Row positions reading each net, ascending -- the event queue of
        # :class:`TernaryEventEngine` schedules re-evaluations with these.
        readers: List[List[int]] = [[] for _ in range(self.num_nets)]
        for position, (_output, _op, inputs, _inverting) in enumerate(self.rows):
            for net in set(inputs):
                readers[net].append(position)
        self.reader_rows: List[Tuple[int, ...]] = [
            tuple(positions) for positions in readers
        ]
        # Topological levels: primary inputs are level 0, each gate output
        # is one past its deepest input.  A row only ever reads nets of
        # strictly lower levels, so the event engine can drain dense
        # per-level buckets in level order instead of a heap.
        levels = [0] * self.num_nets
        row_levels: List[int] = []
        for output, _op, inputs, _inverting in self.rows:
            level = 1 + max(levels[net] for net in inputs)
            levels[output] = level
            row_levels.append(level)
        self.row_levels: List[int] = row_levels
        self.num_levels: int = (max(row_levels) + 1) if row_levels else 1
        self._table_rows: Optional[List[TableRow]] = None
        self._cone_bits: Optional[List[int]] = None
        self._region_bits: Optional[List[int]] = None
        self._cones: Optional[List[Optional[Tuple[IndexedRow, ...]]]] = None

    def cone_rows(self, net: int) -> Tuple[IndexedRow, ...]:
        """The rows of every gate in ``net``'s transitive fanout, in order.

        These are the only rows a stuck-at fault on ``net`` can change, so
        the fault simulator re-evaluates exactly them.  ``net``'s own row
        is not part of its cone.  Cached per net.
        """
        cones = self._cones
        if cones is None:
            self._build_cone_table()
            cones = self._cones
        cone = cones[net]
        if cone is None:
            bits = _mask_bits(self._cone_bits[net] >> self.num_inputs, len(self.rows))
            cone = cones[net] = tuple(compress(self.rows, map("1".__eq__, bits)))
        return cone

    def fault_region(self, net: int) -> int:
        """``net``'s fault region, as a bit mask over net indices.

        The region is the fanin closure of ``net`` and its fanout cone:
        every net a test for a stuck-at fault on ``net`` can read.  PODEM
        reads nothing else -- activation reads ``net``, the D-frontier
        and the X-path walk stay in the cone, and the backtrace only
        descends into fanins.  The region is fanin-closed, so a row whose
        output lies in it reads only region nets; that is what lets
        :meth:`TernaryEventEngine.reforce` fence every other row.
        """
        if self._region_bits is None:
            self._build_cone_table()
        return self._region_bits[net]

    def _build_cone_table(self) -> None:
        """Every net's cone and region bit masks, in two passes over rows.

        The front-to-back pass gives each net's fanin closure.  The
        back-to-front pass folds each row's output into the nets it reads:
        ``cone(n)`` is the union over ``n``'s readers ``r`` of ``{r} |
        cone(r)``, and ``region(n) = fanin(n) | union of region(r)``,
        because the fanin closure of a union is the union of the closures.
        Each mask takes ``num_nets`` bits.
        """
        rows = self.rows
        closure = [1 << net for net in range(self.num_nets)]
        for output, _op, inputs, _inverting in rows:
            bits = closure[output]
            for net in inputs:
                bits |= closure[net]
            closure[output] = bits
        cones = [0] * self.num_nets
        regions = closure  # each net's region grows from its fanin closure
        for output, _op, inputs, _inverting in reversed(rows):
            cone = cones[output] | (1 << output)
            region = regions[output]
            for net in inputs:
                cones[net] |= cone
                regions[net] |= region
        self._cone_bits = cones
        self._region_bits = regions
        self._cones = [None] * self.num_nets

    def table_rows(self) -> List[TableRow]:
        """The rows of :class:`TernaryEventEngine`, built lazily per plan.

        A row of one to three inputs evaluates by indexing its shared
        :func:`_state_table` with a key of shifted operand states.
        """
        trows = self._table_rows
        if trows is None:
            trows = []
            for output, op, inputs, inverting in self.rows:
                arity = len(inputs)
                if arity > 3:
                    trows.append((output, 0, -1, -1, -1, None))
                    continue
                a, b, c = (*inputs, -1, -1)[:3]
                table = _state_table(op, inverting, arity)
                trows.append((output, arity, a, b, c, table))
            self._table_rows = trows
        return trows


_PACKED_PLAN_CACHE: "WeakKeyDictionary[Netlist, PackedPlan]" = WeakKeyDictionary()


def packed_plan(netlist: Netlist) -> PackedPlan:
    """The netlist's :class:`PackedPlan`, built once and cached."""
    plan = _PACKED_PLAN_CACHE.get(netlist)
    if plan is None:
        plan = PackedPlan(netlist)
        _PACKED_PLAN_CACHE[netlist] = plan
    return plan


# ----------------------------------------------------------------------
# Engine cores
# ----------------------------------------------------------------------
def eval_binary(
    plan: PackedPlan,
    values: List[int],
    mask: int,
    force_index: int = -1,
    force_word: int = 0,
) -> None:
    """Two-valued pattern-parallel evaluation over a pre-seeded state list.

    ``values[0:num_inputs]`` must hold the packed primary-input words; gate
    entries are written in place.  ``force_index >= 0`` overlays a stuck-at
    fault: that net is forced to ``force_word`` on every pattern (after its
    gate is evaluated; input sites must be forced by the caller before the
    call, since inputs have no plan row).
    """
    for output, op, inputs, inverting in plan.rows:
        if op == OP_AND:
            result = mask
            for net in inputs:
                result &= values[net]
        elif op == OP_OR:
            result = 0
            for net in inputs:
                result |= values[net]
        elif op == OP_XOR:
            result = 0
            for net in inputs:
                result ^= values[net]
        else:
            result = values[inputs[0]]
        if inverting:
            result = ~result & mask
        values[output] = force_word if output == force_index else result


def eval_ternary(
    plan: PackedPlan,
    values: List[int],
    cares: List[int],
    mask: int,
    force_index: int = -1,
    force_mask: int = 0,
    force_value: int = 0,
) -> None:
    """Three-valued (01X) evaluation over pre-seeded ``(value, care)`` lists.

    Input entries ``[0:num_inputs]`` must be seeded (care bit 0 = X); gate
    entries are written in place.  Value bits are kept masked to the care
    bits, so states are canonical and directly comparable.

    A fault overlay ``(force_index, force_mask, force_value)`` forces the
    net at ``force_index`` to the known value ``force_value`` on the
    patterns selected by ``force_mask`` -- the PODEM faulty machine passes
    ``force_mask = 0b10`` to poison only its own bit of the shared word.
    Input-site overlays must again be applied by the caller before the call.
    """
    for output, op, inputs, inverting in plan.rows:
        if op == OP_AND:
            # known-0 when any input is known-0; known-1 when all are known-1
            zero_any = 0
            one_all = mask
            for net in inputs:
                care = cares[net]
                value = values[net]
                zero_any |= care & ~value
                one_all &= value
            care = (zero_any | one_all) & mask
            value = one_all & care
        elif op == OP_OR:
            one_any = 0
            zero_all = mask
            for net in inputs:
                care = cares[net]
                value = values[net]
                one_any |= value
                zero_all &= care & ~value
            care = (one_any | zero_all) & mask
            value = one_any & care
        elif op == OP_XOR:
            care = mask
            value = 0
            for net in inputs:
                care &= cares[net]
                value ^= values[net]
            value &= care
        else:
            care = cares[inputs[0]]
            value = values[inputs[0]]
        if inverting:
            value = ~value & care
        if output == force_index:
            care |= force_mask
            value = (value & ~force_mask) | (force_value & force_mask)
        cares[output] = care
        values[output] = value


# ----------------------------------------------------------------------
# Event-driven incremental evaluation
# ----------------------------------------------------------------------
#: The ``_pending`` stamp of a fenced row.  Pass numbers count up from 1 and
#: never reach it, so the bucket loops' ``pending < stamp`` test, the same
#: test that keeps a row from being queued twice in one pass, never queues
#: a fenced row.
_FENCED = sys.maxsize
#: The stamp of each character of a :func:`_mask_bits` region string.
_STAMP_OF_BIT = {"0": _FENCED, "1": 0}


def _fence_stamps(rows: int, num_rows: int) -> List[int]:
    """``_pending`` stamps fencing every row whose bit in ``rows`` is 0."""
    return list(map(_STAMP_OF_BIT.__getitem__, _mask_bits(rows, num_rows)))


class TernaryEventEngine:
    """PODEM's persistent dual-machine state with fanout-cone event updates.

    Where :func:`eval_ternary` recomputes every gate of the plan, this
    engine keeps the good and the faulty machine's 01X state alive between
    queries and, on each primary-input change, re-evaluates only the gates
    whose inputs actually changed: dirty plan rows are dropped into dense
    per-level bucket queues (levels precomputed in
    :attr:`PackedPlan.row_levels`) and drained in level order, which walks
    the assigned input's fanout cone topologically without a single heap
    push/pop and stops propagating wherever the recomputed state equals the
    stored one.  A row only reads nets of strictly lower levels, so
    draining level ``L`` can only enqueue rows at levels ``> L``: each gate
    is evaluated at most once per update.  Without an overlay installed by
    :meth:`reforce`, the state is identical to a from-scratch
    :func:`eval_ternary` pass at mask ``0b11`` over the same inputs; with
    one, that holds inside the forced net's fault region
    (:meth:`PackedPlan.fault_region`), and every row outside it keeps the
    state it had when the overlay went in.  The golden-equivalence tests
    and the differential properties pin both.

    ``states`` holds one 4-bit state per net, ``(value << 2) | care`` of the
    net's 2-bit value and care words (bit 0 the good machine, bit 1 the
    faulty one).  A row of one to three inputs evaluates as one lookup in
    its combined state table (:meth:`PackedPlan.table_rows`), inversion
    folded in; a wider row decodes, reduces and encodes its operand states.
    PODEM reads the states through :data:`CARRIES_DIFFERENCE`,
    :data:`GOOD_KNOWN`, :data:`BOTH_KNOWN` and :data:`GOOD_VALUE`.

    Every overwritten state is pushed onto an **undo log** as ``(net,
    old_state)``; :meth:`assign` returns the log position before the
    update, and :meth:`rewind` rewinds to it.  That is exactly the shape of
    PODEM's decision stack: assign a primary input, recurse, and on
    backtrack restore the previous state in O(changed cone) instead of
    re-simulating the netlist.

    The engine carries the same stuck-at fault overlay as the batch
    evaluators, installed on the live state with :meth:`reforce` and
    dropped with :meth:`release_force`: while it is in, ``force_index`` is
    re-forced through the overlay's 16-entry force table whenever its net
    is re-evaluated (or re-assigned, for input sites), so a PODEM faulty
    machine stays poisoned across incremental updates.  Both ride the undo
    log, so one engine can be rewound to its empty-assignment checkpoint
    and re-forced for the next targeted fault instead of being rebuilt
    from scratch.  :meth:`reforce` also fences the engine to the forced
    net's fault region: PODEM reads only region nets, so a row outside it
    could never change a decision, and no pass evaluates one until
    :meth:`release_force` lifts the fence.
    """

    __slots__ = (
        "plan",
        "states",
        "force_index",
        "_force",
        "_undo",
        "_buckets",
        "_pending",
        "_trows",
        "events_processed",
        "propagate_passes",
        "max_undo_depth",
    )

    def __init__(self, plan: PackedPlan):
        self.plan = plan
        self.force_index = -1  # no overlay until reforce installs one
        self._force: Tuple[int, ...] = ()
        self._undo: List[Tuple[int, int]] = []
        # Per-level bucket queues, reused across propagations; a row is in
        # a bucket iff its ``_pending`` stamp equals the current pass
        # number, so each row is queued at most once per pass and no
        # per-row clearing is needed between passes.  Fenced rows hold
        # the unreachable stamp ``_FENCED`` (see reforce).
        self._buckets: List[List[int]] = [[] for _ in range(plan.num_levels)]
        self._pending: List[int] = [0] * len(plan.rows)
        self._trows: List[TableRow] = plan.table_rows()
        # Lifetime telemetry: rows drained from the bucket queues, bucket
        # passes run, and the high watermark of the undo log.  All are
        # maintained with one integer update per assign/propagate, cheap
        # enough to keep unconditional.
        self.events_processed = 0
        self.propagate_passes = 0
        self.max_undo_depth = 0
        # The empty-assignment baseline: every input X, and no gate of the
        # 01X algebra knows its output while all of its inputs are X.
        self.states = [0] * plan.num_nets

    def assign(self, index: int, bit: Optional[int]) -> int:
        """Set primary input ``index`` to 0, 1 or X on both machines.

        Returns the undo token taken *before* the update; passing it to
        :meth:`rewind` restores the exact prior state.
        """
        token = len(self._undo)
        state = 0 if bit is None else (0b1111 if bit else 0b0011)
        if index == self.force_index:
            state = self._force[state]
        old = self.states[index]
        if old == state:
            return token
        self._undo.append((index, old))
        self.states[index] = state
        self._propagate(self.plan.reader_rows[index])
        if len(self._undo) > self.max_undo_depth:
            self.max_undo_depth = len(self._undo)
        return token

    def changed_entries(self, token: int) -> List[Tuple[int, int]]:
        """The ``(net, old_state)`` log slice since ``token``.

        Entries hold the *pre-change* states (the log records overwrites);
        callers wanting the live states index ``states``.
        """
        return self._undo[token:]

    def rewind(self, token: int) -> List[Tuple[int, int]]:
        """Rewind to a token returned by :meth:`assign` (or :meth:`reforce`).

        Returns the restored ``(net, old_state)`` log slice, in log
        (chronological) order.  Entries are replayed newest first, so when
        a net was overwritten several times since the token its *earliest*
        entry is the one left in the state.
        """
        undo = self._undo
        entries = undo[token:]
        states = self.states
        for index, state in reversed(entries):
            states[index] = state
        del undo[token:]
        return entries

    def reforce(self, force_index: int, force_mask: int, force_value: int) -> int:
        """Install a stuck-at overlay on the live state, fenced; undoable.

        Inside the forced net's fault region this is equivalent to
        constructing a fresh engine with the overlay on the same
        assignment: the forced net's stored state gets ``care |=
        force_mask`` / the forced value bits, and the change (if any)
        propagates through its fanout cone.  Every row outside the region
        is fenced until :meth:`release_force`: later updates never
        evaluate it, so its net keeps its present state.  One overlay is
        installed at a time.  Returns an undo token for
        :meth:`release_force`, which drops the overlay and the fence and
        rewinds -- the pair is what lets PODEM keep one engine across
        targeted faults instead of rebuilding the state plus a full
        evaluation each time.
        """
        token = len(self._undo)
        plan = self.plan
        self.force_index = force_index
        self._force = force = _force_table(force_mask, force_value)
        self._pending = _fence_stamps(
            plan.fault_region(force_index) >> plan.num_inputs, len(plan.rows)
        )
        old = self.states[force_index]
        state = force[old]
        if old != state:
            self._undo.append((force_index, old))
            self.states[force_index] = state
            self._propagate(plan.reader_rows[force_index])
        if len(self._undo) > self.max_undo_depth:
            self.max_undo_depth = len(self._undo)
        return token

    def release_force(self, token: int) -> List[Tuple[int, int]]:
        """Drop the :meth:`reforce` overlay and its fence; rewind to its token.

        The rewind restores the state the overlay went in on, which the
        fenced rows still hold.  Returns the restored log slice (see
        :meth:`rewind`).
        """
        self.force_index = -1
        self._force = ()
        self._pending = [0] * len(self.plan.rows)
        return self.rewind(token)

    def _propagate(self, seed_rows: Sequence[int]) -> None:
        """Re-evaluate the dirty fanout cone, one level bucket at a time."""
        plan = self.plan
        trows = self._trows
        row_levels = plan.row_levels
        reader_rows = plan.reader_rows
        buckets = self._buckets
        pending = self._pending
        states = self.states
        force_index = self.force_index
        force = self._force
        undo = self._undo
        self.propagate_passes = stamp = self.propagate_passes + 1
        lo = plan.num_levels
        for position in seed_rows:
            if pending[position] < stamp:
                pending[position] = stamp
                level = row_levels[position]
                buckets[level].append(position)
                if level < lo:
                    lo = level
        events = 0
        for level in range(lo, plan.num_levels):
            bucket = buckets[level]
            if not bucket:
                continue
            # Draining level L only ever appends to buckets > L (a reader
            # sits one past its deepest input), so iterating the bucket
            # while higher ones grow is safe, and a drained row can never
            # be re-queued within this pass.
            for position in bucket:
                output, arity, a, b, c, table = trows[position]
                if arity == 2:
                    state = table[(states[a] << 4) | states[b]]
                elif arity == 3:
                    state = table[(states[a] << 8) | (states[b] << 4) | states[c]]
                elif arity == 1:
                    state = table[states[a]]
                else:
                    _output, op, inputs, inverting = plan.rows[position]
                    state = _row_state(op, inverting, [states[net] for net in inputs])
                if output == force_index:
                    state = force[state]
                old = states[output]
                if old == state:
                    continue
                undo.append((output, old))
                states[output] = state
                for reader in reader_rows[output]:
                    if pending[reader] < stamp:
                        pending[reader] = stamp
                        buckets[row_levels[reader]].append(reader)
            # The bucket only ever shrinks to empty here (appends went to
            # higher levels), so its length is the drained-event count.
            events += len(bucket)
            del bucket[:]
        self.events_processed += events
