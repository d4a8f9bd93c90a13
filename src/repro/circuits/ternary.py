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
a 2-bit word, fault simulation packs hundreds of patterns, and the uint64
blocks of the numpy embedding-matching layer are just this encoding sliced
into 64-bit words (see :meth:`repro.testdata.cube.TestCube.packed_words`).

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
the module provides :class:`TernaryEventEngine`: a persistent state that
updates incrementally when one primary input changes, re-evaluating only the
dirty fanout cone through per-level bucket queues and recording every
overwrite in an undo log so a caller (PODEM's backtracking search) can
rewind in O(changed cone).  While a fault overlay is installed the engine is
fenced to the fault's region.
"""

from __future__ import annotations

import sys
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple
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

#: Fused opcodes of :attr:`PackedPlan.fused_rows`: 2- and 3-input
#: AND/OR/XOR (together the vast majority of gates in every netlist this
#: package sees) and the 1-input buffer carry their operand indices inline,
#: so the event engine's hot loop computes them with straight-line integer
#: algebra instead of the generic reduce over an input tuple.  Gates with
#: any other arity keep their generic opcode (``OP_AND``/``OP_OR``/
#: ``OP_XOR``) and fall through to the reduce loop.
_F_AND2, _F_OR2, _F_XOR2, _F_BUF = 4, 5, 6, 7
_F_AND3, _F_OR3, _F_XOR3 = 8, 9, 10

_FUSED_2IN = {OP_AND: _F_AND2, OP_OR: _F_OR2, OP_XOR: _F_XOR2}
_FUSED_3IN = {OP_AND: _F_AND3, OP_OR: _F_OR3, OP_XOR: _F_XOR3}

#: Lookup tables for 2-bit (``mask == 0b11``) engines, keyed by fused
#: opcode and the row's ``inverting`` flag.  Every operand word of a
#: 2-bit engine is one of 16 states ``(value << 2) | care``, so a whole
#: row evaluates as two list indexings on a key built from shifted
#: operand states -- no bit algebra, no opcode dispatch beyond arity,
#: and the inversion folded into the table.  Shared process-wide; at
#: most 14 table pairs of <= 4096 small ints each.
#: 14 (fused op, inverting) pairs exist, so the bound never evicts; the
#: LRUCache is the bounded-cache discipline, not a working-set limit.
_TABLE_CACHE: LRUCache = LRUCache(32)


def _fused_tables(op: int, inverting: bool) -> Tuple[List[int], List[int]]:
    cached = _TABLE_CACHE.get((op, inverting))
    if cached is not None:
        return cached
    if op == _F_BUF:
        size = 16
    elif op in (_F_AND2, _F_OR2, _F_XOR2):
        size = 256
    else:
        size = 4096
    value_table = [0] * size
    care_table = [0] * size
    for key in range(size):
        # Decode operand states; same row algebra as the inline fused
        # arms of TernaryEventEngine._propagate, specialised to mask 3.
        va, ca = (key >> 6) & 3, (key >> 4) & 3
        vb, cb = (key >> 2) & 3, key & 3
        if op == _F_BUF:
            va, ca = (key >> 2) & 3, key & 3
            value, care = va, ca
        elif op == _F_AND2:
            care = ((ca & ~va) | (cb & ~vb) | (va & vb)) & 3
            value = va & vb & care
        elif op == _F_OR2:
            value = va | vb
            care = (value | (ca & ~va & cb & ~vb)) & 3
            value &= care
        elif op == _F_XOR2:
            care = ca & cb
            value = (va ^ vb) & care
        else:
            va, ca = (key >> 10) & 3, (key >> 8) & 3
            vb, cb = (key >> 6) & 3, (key >> 4) & 3
            vc, cc = (key >> 2) & 3, key & 3
            if op == _F_AND3:
                care = (
                    (ca & ~va) | (cb & ~vb) | (cc & ~vc) | (va & vb & vc)
                ) & 3
                value = va & vb & vc & care
            elif op == _F_OR3:
                value = va | vb | vc
                care = (value | (ca & ~va & cb & ~vb & cc & ~vc)) & 3
                value &= care
            else:
                care = ca & cb & cc
                value = (va ^ vb ^ vc) & care
        if inverting:
            value = ~value & care
        value_table[key] = value
        care_table[key] = care
    tables = (value_table, care_table)
    _TABLE_CACHE.put((op, inverting), tables)
    return tables

#: Fused rows: ``(output, fused_op, a, b, c, inputs, inverting)``.
#: ``a``/``b``/``c`` are the operand net indices of fused ops (unused
#: trailing operands are -1) and all -1 for generic ops, which read
#: ``inputs`` instead.
FusedRow = Tuple[int, int, int, int, int, Tuple[int, ...], bool]

#: Table rows: ``(output, arity, a, b, c, value_table, care_table)``.
#: ``arity`` is 1/2/3 for table-evaluated rows and 0 for generic rows
#: (arity > 3), which fall back to the fused-row reduce.
TableRow = Tuple[
    int, int, int, int, int, Optional[List[int]], Optional[List[int]]
]


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
        "fused_rows",
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
        # per-level buckets in level order instead of a heap.  The fused
        # rows mirror ``rows`` with 2-input AND/OR/XOR and BUF remapped to
        # inline-operand opcodes (see :data:`_F_AND2`).
        levels = [0] * self.num_nets
        row_levels: List[int] = []
        fused: List[FusedRow] = []
        for output, op, inputs, inverting in self.rows:
            level = 1 + max(levels[net] for net in inputs)
            levels[output] = level
            row_levels.append(level)
            if op == OP_BUF:
                fused.append(
                    (output, _F_BUF, inputs[0], -1, -1, inputs, inverting)
                )
            elif len(inputs) == 2:
                fused.append(
                    (
                        output,
                        _FUSED_2IN[op],
                        inputs[0],
                        inputs[1],
                        -1,
                        inputs,
                        inverting,
                    )
                )
            elif len(inputs) == 3:
                fused.append(
                    (
                        output,
                        _FUSED_3IN[op],
                        inputs[0],
                        inputs[1],
                        inputs[2],
                        inputs,
                        inverting,
                    )
                )
            else:
                fused.append((output, op, -1, -1, -1, inputs, inverting))
        self.row_levels: List[int] = row_levels
        self.num_levels: int = (max(row_levels) + 1) if row_levels else 1
        self.fused_rows: List[FusedRow] = fused
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
        """Lookup-table rows for 2-bit engines, built lazily per plan.

        Only valid when the engine mask is ``0b11`` (the PODEM dual-word
        encoding): each operand word is then one of 16 states, so rows
        evaluate by indexing the shared :func:`_fused_tables` pair with a
        key of shifted operand states.
        """
        trows = self._table_rows
        if trows is None:
            trows = []
            for output, op, a, b, c, _inputs, inverting in self.fused_rows:
                if op == _F_BUF:
                    arity = 1
                elif op in (_F_AND2, _F_OR2, _F_XOR2):
                    arity = 2
                elif op in (_F_AND3, _F_OR3, _F_XOR3):
                    arity = 3
                else:
                    trows.append((output, 0, -1, -1, -1, None, None))
                    continue
                value_table, care_table = _fused_tables(op, inverting)
                trows.append((output, arity, a, b, c, value_table, care_table))
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
    """Persistent packed ternary state with fanout-cone event updates.

    Where :func:`eval_ternary` recomputes every gate of the plan,
    this engine keeps the two-word state alive between queries and, on each
    primary-input change, re-evaluates only the gates whose inputs actually
    changed: dirty plan rows are dropped into dense per-level bucket queues
    (levels precomputed in :attr:`PackedPlan.row_levels`) and drained in
    level order, which walks the assigned input's fanout cone topologically
    without a single heap push/pop and stops propagating wherever the
    recomputed ``(value, care)`` pair equals the stored one.  A row only
    reads nets of strictly lower levels, so draining level ``L`` can only
    enqueue rows at levels ``> L``: each gate is evaluated at most once per
    update.  Without an overlay installed by :meth:`reforce`, the resulting
    state is identical to a from-scratch :func:`eval_ternary` pass over the
    same inputs; with one, that holds inside the forced net's fault region
    (:meth:`PackedPlan.fault_region`), and every row outside it keeps the
    words it had when the overlay went in.  The golden-equivalence tests
    and the differential properties pin both.

    The hot loop dispatches on :attr:`PackedPlan.fused_rows`: 2-input
    AND/OR/XOR gates (the vast majority) and buffers are computed with
    straight-line two-operand algebra; only wider gates fall through to the
    generic reduce over the input tuple.

    Every overwritten word pair is pushed onto an **undo log**;
    :meth:`assign` returns the log position before the update, and
    :meth:`rewind` rewinds to it.  That is exactly the shape of PODEM's
    decision stack: assign a primary input, recurse, and on backtrack
    restore the previous state in O(changed cone) instead of re-simulating
    the netlist.

    The engine carries the same stuck-at fault overlay as the batch
    evaluators, installed on the live state with :meth:`reforce` and
    dropped with :meth:`release_force`: while it is in, ``force_index`` is
    re-forced to ``(force_mask, force_value)`` whenever its net is
    re-evaluated (or re-assigned, for input sites), so a PODEM faulty
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
        "mask",
        "values",
        "cares",
        "force_index",
        "force_mask",
        "force_value",
        "_undo",
        "_buckets",
        "_pending",
        "_trows",
        "events_processed",
        "propagate_passes",
        "max_undo_depth",
    )

    def __init__(self, plan: PackedPlan, mask: int):
        self.plan = plan
        self.mask = mask
        self.force_index = -1  # no overlay until reforce installs one
        self.force_mask = 0
        self.force_value = 0
        self._undo: List[Tuple[int, int, int]] = []
        # Per-level bucket queues, reused across propagations; a row is in
        # a bucket iff its ``_pending`` stamp equals the current pass
        # number, so each row is queued at most once per pass and no
        # per-row clearing is needed between passes.  Fenced rows hold
        # the unreachable stamp ``_FENCED`` (see reforce).
        self._buckets: List[List[int]] = [[] for _ in range(plan.num_levels)]
        self._pending: List[int] = [0] * len(plan.rows)
        # 2-bit engines (the PODEM dual-word encoding) evaluate rows via
        # the shared state lookup tables instead of inline bit algebra.
        self._trows: Optional[List[TableRow]] = (
            plan.table_rows() if mask == 0b11 else None
        )
        # Lifetime telemetry: rows drained from the bucket queues, bucket
        # passes run, and the high watermark of the undo log.  All are
        # maintained with one integer update per assign/propagate, cheap
        # enough to keep unconditional.
        self.events_processed = 0
        self.propagate_passes = 0
        self.max_undo_depth = 0
        # The empty-assignment baseline: every input X.
        self.values = [0] * plan.num_nets
        self.cares = [0] * plan.num_nets
        eval_ternary(plan, self.values, self.cares, mask)

    def assign(self, index: int, bit: Optional[int]) -> int:
        """Set primary input ``index`` to 0, 1 or X on every pattern.

        Returns the undo token taken *before* the update; passing it to
        :meth:`rewind` restores the exact prior state.
        """
        token = len(self._undo)
        mask = self.mask
        if bit is None:
            care = 0
            value = 0
        else:
            care = mask
            value = mask if bit else 0
        if index == self.force_index:
            care |= self.force_mask
            value = (value & ~self.force_mask) | (self.force_value & self.force_mask)
        values, cares = self.values, self.cares
        if cares[index] == care and values[index] == value:
            return token
        self._undo.append((index, values[index], cares[index]))
        values[index] = value
        cares[index] = care
        self._propagate(self.plan.reader_rows[index])
        if len(self._undo) > self.max_undo_depth:
            self.max_undo_depth = len(self._undo)
        return token

    def changed_entries(self, token: int) -> List[Tuple[int, int, int]]:
        """The raw ``(index, value, care)`` log slice since ``token``.

        Entries hold the *pre-change* words (the log records overwrites);
        callers wanting the live words index the state lists.
        """
        return self._undo[token:]

    def rewind(self, token: int) -> List[Tuple[int, int, int]]:
        """Rewind to a token returned by :meth:`assign` (or :meth:`reforce`).

        Returns the restored ``(index, value, care)`` log slice.  The slice
        is in log (chronological) order; entries are replayed newest first,
        so when an index was overwritten several times since the token its
        *earliest* entry is the one left in the state.  A caller tracking
        derived per-net bookkeeping can read the restored words straight off
        the entries (iterating the slice in reverse) instead of re-indexing
        the state lists.
        """
        undo = self._undo
        entries = undo[token:]
        values, cares = self.values, self.cares
        for index, value, care in reversed(entries):
            values[index] = value
            cares[index] = care
        del undo[token:]
        return entries

    def reforce(self, force_index: int, force_mask: int, force_value: int) -> int:
        """Install a stuck-at overlay on the live state, fenced; undoable.

        Inside the forced net's fault region this is equivalent to
        constructing a fresh engine with the overlay on the same
        assignment: the forced net's stored words get ``care |=
        force_mask`` / the forced value bits, and the change (if any)
        propagates through its fanout cone.  Every row outside the region
        is fenced until :meth:`release_force`: later updates never
        evaluate it, so its net keeps its present words.  One overlay is
        installed at a time.  Returns an undo token for
        :meth:`release_force`, which drops the overlay and the fence and
        rewinds -- the pair is what lets PODEM keep one engine across
        targeted faults instead of rebuilding two state lists plus a full
        evaluation each time.
        """
        token = len(self._undo)
        plan = self.plan
        self.force_index = force_index
        self.force_mask = force_mask
        self.force_value = force_value
        self._pending = _fence_stamps(
            plan.fault_region(force_index) >> plan.num_inputs, len(plan.rows)
        )
        values, cares = self.values, self.cares
        old_value = values[force_index]
        old_care = cares[force_index]
        care = old_care | force_mask
        value = (old_value & ~force_mask) | (force_value & force_mask)
        if old_care != care or old_value != value:
            self._undo.append((force_index, old_value, old_care))
            values[force_index] = value
            cares[force_index] = care
            self._propagate(plan.reader_rows[force_index])
        if len(self._undo) > self.max_undo_depth:
            self.max_undo_depth = len(self._undo)
        return token

    def release_force(self, token: int) -> List[Tuple[int, int, int]]:
        """Drop the :meth:`reforce` overlay and its fence; rewind to its token.

        The rewind restores the state the overlay went in on, which the
        fenced rows still hold.  Returns the restored log slice (see
        :meth:`rewind`).
        """
        self.force_index = -1
        self.force_mask = 0
        self.force_value = 0
        self._pending = [0] * len(self.plan.rows)
        return self.rewind(token)

    def _propagate(self, seed_rows: Sequence[int]) -> None:
        """Re-evaluate the dirty fanout cone, one level bucket at a time."""
        if self._trows is not None:
            self._propagate_tables(seed_rows)
            return
        plan = self.plan
        rows = plan.fused_rows
        row_levels = plan.row_levels
        reader_rows = plan.reader_rows
        buckets = self._buckets
        pending = self._pending
        values, cares = self.values, self.cares
        mask = self.mask
        force_index = self.force_index
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
                output, op, a, b, c, inputs, inverting = rows[position]
                # Same row algebra as eval_ternary (kept in lockstep),
                # with the dominant 2-/3-input and BUF shapes fused to
                # straight-line operand reads.
                if op == _F_AND2:
                    va = values[a]
                    vb = values[b]
                    care = ((cares[a] & ~va) | (cares[b] & ~vb) | (va & vb)) & mask
                    value = va & vb & care
                elif op == _F_OR2:
                    va = values[a]
                    vb = values[b]
                    value = va | vb
                    care = (value | (cares[a] & ~va & cares[b] & ~vb)) & mask
                    value &= care
                elif op == _F_AND3:
                    va = values[a]
                    vb = values[b]
                    vc = values[c]
                    care = (
                        (cares[a] & ~va)
                        | (cares[b] & ~vb)
                        | (cares[c] & ~vc)
                        | (va & vb & vc)
                    ) & mask
                    value = va & vb & vc & care
                elif op == _F_OR3:
                    va = values[a]
                    vb = values[b]
                    vc = values[c]
                    value = va | vb | vc
                    care = (
                        value | (cares[a] & ~va & cares[b] & ~vb & cares[c] & ~vc)
                    ) & mask
                    value &= care
                elif op == _F_BUF:
                    care = cares[a]
                    value = values[a]
                elif op == _F_XOR2:
                    care = cares[a] & cares[b]
                    value = (values[a] ^ values[b]) & care
                elif op == _F_XOR3:
                    care = cares[a] & cares[b] & cares[c]
                    value = (values[a] ^ values[b] ^ values[c]) & care
                elif op == OP_AND:
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
                else:
                    care = mask
                    value = 0
                    for net in inputs:
                        care &= cares[net]
                        value ^= values[net]
                    value &= care
                if inverting:
                    value = ~value & care
                if output == force_index:
                    care |= self.force_mask
                    value = (value & ~self.force_mask) | (
                        self.force_value & self.force_mask
                    )
                old_care = cares[output]
                old_value = values[output]
                if old_care == care and old_value == value:
                    continue
                undo.append((output, old_value, old_care))
                values[output] = value
                cares[output] = care
                for reader in reader_rows[output]:
                    if pending[reader] < stamp:
                        pending[reader] = stamp
                        buckets[row_levels[reader]].append(reader)
            # The bucket only ever shrinks to empty here (appends went to
            # higher levels), so its length is the drained-event count.
            events += len(bucket)
            del bucket[:]
        self.events_processed += events

    def _propagate_tables(self, seed_rows: Sequence[int]) -> None:
        """The 2-bit fast path of :meth:`_propagate`.

        Identical bucket drain, but each row evaluates as two list
        indexings into the precomputed state tables (inversion folded
        in), keyed by the shifted 4-bit operand states.  Bit-identical
        to the generic loop: the tables are built from the same row
        algebra over every reachable operand state.
        """
        plan = self.plan
        trows = self._trows
        frows = plan.fused_rows
        row_levels = plan.row_levels
        reader_rows = plan.reader_rows
        buckets = self._buckets
        pending = self._pending
        values, cares = self.values, self.cares
        force_index = self.force_index
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
            for position in bucket:
                output, arity, a, b, c, value_table, care_table = trows[
                    position
                ]
                if arity == 2:
                    key = (
                        (values[a] << 6)
                        | (cares[a] << 4)
                        | (values[b] << 2)
                        | cares[b]
                    )
                    value = value_table[key]
                    care = care_table[key]
                elif arity == 3:
                    key = (
                        (values[a] << 10)
                        | (cares[a] << 8)
                        | (values[b] << 6)
                        | (cares[b] << 4)
                        | (values[c] << 2)
                        | cares[c]
                    )
                    value = value_table[key]
                    care = care_table[key]
                elif arity == 1:
                    key = (values[a] << 2) | cares[a]
                    value = value_table[key]
                    care = care_table[key]
                else:
                    # Generic reduce for arity > 3, shared with the
                    # non-table loop via the fused-row operand tuple.
                    _out, op, _a, _b, _c, inputs, inverting = frows[position]
                    if op == OP_AND:
                        zero_any = 0
                        one_all = 0b11
                        for net in inputs:
                            care = cares[net]
                            value = values[net]
                            zero_any |= care & ~value
                            one_all &= value
                        care = (zero_any | one_all) & 0b11
                        value = one_all & care
                    elif op == OP_OR:
                        one_any = 0
                        zero_all = 0b11
                        for net in inputs:
                            care = cares[net]
                            value = values[net]
                            one_any |= value
                            zero_all &= care & ~value
                        care = (one_any | zero_all) & 0b11
                        value = one_any & care
                    else:
                        care = 0b11
                        value = 0
                        for net in inputs:
                            care &= cares[net]
                            value ^= values[net]
                        value &= care
                    if inverting:
                        value = ~value & care
                if output == force_index:
                    care |= self.force_mask
                    value = (value & ~self.force_mask) | (
                        self.force_value & self.force_mask
                    )
                old_care = cares[output]
                old_value = values[output]
                if old_care == care and old_value == value:
                    continue
                undo.append((output, old_value, old_care))
                values[output] = value
                cares[output] = care
                for reader in reader_rows[output]:
                    if pending[reader] < stamp:
                        pending[reader] = stamp
                        buckets[row_levels[reader]].append(reader)
            events += len(bucket)
            del bucket[:]
        self.events_processed += events
