"""Routing-trace recording.

Engines record every routing decision (which experts each token activated
at each block, in which phase) into an :class:`ActivationTrace`; the
similarity and prediction analyses of the paper's observations section are
computed from these traces.

A trace stores its events as typed columns, one row per (token, block)
event (~33 bytes for a top-2 row, where a stored :class:`RoutingEvent`
object cost ~113); the aggregations read the columns as numpy views,
and ``ActivationTrace.events`` is a read-only sequence that builds a
:class:`RoutingEvent` per access.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

PREFILL = "prefill"
DECODE = "decode"
PHASES = (PREFILL, DECODE)
_PHASE_CODES = {phase: code for code, phase in enumerate(PHASES)}


@dataclass
class RoutingEvent:
    """Expert activations of one token at one block."""

    phase: str
    block: int
    token_pos: int
    experts: tuple[int, ...]
    executed_experts: tuple[int, ...] | None = None
    predicted: bool = False


def _phase_code(phase: str) -> int:
    code = _PHASE_CODES.get(phase)
    if code is None:
        raise ValueError(f"phase must be one of {PHASES}")
    return code


def _ids(experts) -> list:
    """Expert ids (a scalar, list or 1-D array) as a list."""
    if isinstance(experts, list):
        return experts
    return np.atleast_1d(experts).tolist()


def column_view(column: array) -> np.ndarray:
    """Zero-copy numpy view of one typed ``array`` column.

    The view pins the column's buffer (an ``array`` cannot grow while
    exported), so it must not outlive the method that made it.
    """
    return np.frombuffer(column, dtype=column.typecode)


def _owners(offsets: np.ndarray) -> np.ndarray:
    """Row index of every flattened id, given the rows' offsets."""
    return np.repeat(np.arange(offsets.size - 1), np.diff(offsets))


def pair_keys(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """One int64 per ``(row, id)`` pair of int16 ids, ordered by row;
    ``key >> 16`` is the row."""
    return (rows.astype(np.int64) << 16) + (ids.astype(np.int64) + (1 << 15))


class EventsView(Sequence):
    """Read-only sequence of a trace's events (``ActivationTrace.events``).

    Supports ``len``, iteration and int (also negative) indexing; a slice
    returns a list.  Two views are equal when their traces' columns are,
    which is when their events are.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "ActivationTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.phases)

    def __getitem__(self, key):
        trace = self._trace
        n = len(trace.phases)
        if isinstance(key, slice):
            return [trace._event(i) for i in range(*key.indices(n))]
        index = operator.index(key)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("event index out of range")
        return trace._event(index)

    def __iter__(self):
        trace = self._trace
        return (trace._event(i) for i in range(len(trace.phases)))

    def __eq__(self, other) -> bool:
        if isinstance(other, EventsView):
            return self._trace._columns() == other._trace._columns()
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


class ActivationTrace:
    """Accumulated routing events for one generated sequence.

    Attributes:
        n_blocks: blocks of the traced model.
        n_experts: routed experts per block.
        phases: per-event index into :data:`PHASES`, ``array('b')``.
        blocks: per-event block, ``array('i')``.
        positions: per-event token position, ``array('i')``.
        experts: every event's selected expert ids, concatenated
            (``array('h')``); event ``i``'s are
            ``experts[expert_offsets[i]:expert_offsets[i + 1]]``.
        expert_offsets: ``array('q')`` of ``len(events) + 1`` offsets.
        executed: every event's executed expert ids, concatenated; an
            event without an executed set holds none.
        executed_offsets: offsets into ``executed``, as above.
        has_executed: per-event flag: an executed set was recorded.
        predicted: per-event flag: the executed set was predicted.
    """

    def __init__(self, n_blocks: int, n_experts: int) -> None:
        self.n_blocks = n_blocks
        self.n_experts = n_experts
        self.phases = array("b")
        self.blocks = array("i")
        self.positions = array("i")
        self.experts = array("h")
        self.expert_offsets = array("q", [0])
        self.executed = array("h")
        self.executed_offsets = array("q", [0])
        self.has_executed = array("b")
        self.predicted = array("b")

    @property
    def events(self) -> EventsView:
        """Read-only sequence of the recorded events, in order."""
        return EventsView(self)

    def _columns(self) -> tuple:
        return (self.phases, self.blocks, self.positions, self.experts,
                self.expert_offsets, self.executed, self.executed_offsets,
                self.has_executed, self.predicted)

    def _event(self, i: int) -> RoutingEvent:
        """Event ``i`` rebuilt from its row."""
        offsets = self.expert_offsets
        executed = None
        if self.has_executed[i]:
            done = self.executed_offsets
            executed = tuple(self.executed[done[i]:done[i + 1]])
        return RoutingEvent(
            phase=PHASES[self.phases[i]],
            block=self.blocks[i],
            token_pos=self.positions[i],
            experts=tuple(self.experts[offsets[i]:offsets[i + 1]]),
            executed_experts=executed,
            predicted=bool(self.predicted[i]),
        )

    def record(self, phase: str, block: int, token_pos: int,
               experts, executed_experts=None, predicted: bool = False) -> None:
        """Append one routing event."""
        code = _phase_code(phase)
        # Converted (and range-checked) before any column grows.
        selected = array("h", _ids(experts))
        done = (None if executed_experts is None
                else array("h", _ids(executed_experts)))
        self.phases.append(code)
        self.blocks.append(block)
        self.positions.append(token_pos)
        self.experts.extend(selected)
        self.expert_offsets.append(len(self.experts))
        if done is not None:
            self.executed.extend(done)
        self.executed_offsets.append(len(self.executed))
        self.has_executed.append(done is not None)
        self.predicted.append(bool(predicted))

    def record_rows(self, phase: str, block: int, first_pos: int,
                    experts) -> None:
        """Append one event per token of a block's selection.

        ``experts`` is the ``(tokens, top_k)`` selection of the tokens at
        positions ``first_pos, first_pos + 1, ...``; the events carry no
        executed set and are not predicted (a prefill block's).
        """
        code = _phase_code(phase)
        rows = np.asarray(experts)
        if rows.ndim != 2 or rows.shape[1] < 1:
            raise ValueError("experts must be a (tokens, top_k) selection")
        n_rows, top_k = rows.shape
        self.experts.fromlist(rows.ravel().tolist())
        end = self.expert_offsets[-1]
        self.expert_offsets.extend(
            range(end + top_k, end + top_k * n_rows + 1, top_k)
        )
        self.phases.frombytes(bytes((code,)) * n_rows)
        self.blocks.extend(repeat(block, n_rows))
        self.positions.extend(range(first_pos, first_pos + n_rows))
        self.executed_offsets.extend(
            repeat(self.executed_offsets[-1], n_rows)
        )
        self.has_executed.frombytes(bytes(n_rows))
        self.predicted.frombytes(bytes(n_rows))

    def to_state_dict(self) -> dict:
        """Serialize the trace for a checkpoint."""
        experts, offsets = self.experts.tolist(), self.expert_offsets
        executed, done = self.executed.tolist(), self.executed_offsets
        return {
            "n_blocks": self.n_blocks,
            "n_experts": self.n_experts,
            "events": [
                {
                    "phase": PHASES[code],
                    "block": block,
                    "token_pos": token_pos,
                    "experts": experts[offsets[i]:offsets[i + 1]],
                    "executed_experts": (
                        executed[done[i]:done[i + 1]] if has_executed
                        else None
                    ),
                    "predicted": bool(predicted),
                }
                for i, (code, block, token_pos, has_executed, predicted)
                in enumerate(zip(self.phases, self.blocks, self.positions,
                                 self.has_executed, self.predicted))
            ],
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "ActivationTrace":
        """Rebuild a trace captured by :meth:`to_state_dict`."""
        trace = cls(int(payload["n_blocks"]), int(payload["n_experts"]))
        for event in payload["events"]:
            trace.record(event["phase"], int(event["block"]),
                         int(event["token_pos"]), event["experts"],
                         event["executed_experts"], bool(event["predicted"]))
        return trace

    # ---- aggregation ---------------------------------------------------------

    def _phase_mask(self, phase: str | None) -> np.ndarray:
        """Per-event flag: the event is in ``phase`` (any for ``None``)."""
        phases = column_view(self.phases)
        if phase is None:
            return np.ones(phases.size, dtype=bool)
        return phases == _PHASE_CODES.get(phase, -1)

    def id_rows(self, executed: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Every recorded expert id with the index of its event.

        Returns ``(rows, ids)``: the selected ids of every event, or with
        ``executed`` the executed ids of the events that recorded an
        executed set and the selected ids of the rest.
        """
        rows = _owners(column_view(self.expert_offsets))
        ids = column_view(self.experts)
        if not executed:
            return rows, ids.copy()
        has_executed = column_view(self.has_executed).astype(bool)
        done = _owners(column_view(self.executed_offsets))
        keep_done = has_executed[done]
        keep = ~has_executed[rows]
        return (np.concatenate((rows[keep], done[keep_done])),
                np.concatenate((ids[keep],
                                column_view(self.executed)[keep_done])))

    def diverged(self) -> np.ndarray:
        """Per-event flag: an executed set was recorded and it differs,
        as a set, from the selection."""
        flags = np.zeros(len(self.phases), dtype=bool)
        # Distinct (event, id) pairs of each view; a pair in only one of
        # them marks its event.
        odd = np.setxor1d(pair_keys(*self.id_rows()),
                          pair_keys(*self.id_rows(executed=True)))
        flags[odd >> 16] = True
        return flags

    def activation_counts(self, phase: str | None = None,
                          executed: bool = False) -> np.ndarray:
        """Per-(block, expert) activation counts.

        Args:
            phase: restrict to one phase, or ``None`` for both.
            executed: count the experts actually executed (after graceful
                degradation) instead of the gate's selections.
        """
        counts = np.zeros((self.n_blocks, self.n_experts), dtype=np.int64)
        rows, ids = self.id_rows(executed)
        take = self._phase_mask(phase)[rows]
        np.add.at(counts, (column_view(self.blocks)[rows[take]], ids[take]), 1)
        return counts

    def activation_matrix(self, phase: str | None = None,
                          executed: bool = False) -> np.ndarray:
        """Activation-probability matrix: counts / tokens per block.

        This is the paper's :math:`P_{i,j}` / :math:`D_{i,j}`: the ratio of
        tokens routed to expert ``j`` at block ``i`` to the total tokens
        processed by that block.
        """
        counts = self.activation_counts(phase, executed).astype(np.float64)
        tokens = self.token_count(phase)
        if tokens == 0:
            return counts
        return counts / tokens

    def token_count(self, phase: str | None = None) -> int:
        """Distinct token positions recorded (at block 0) for a phase."""
        keep = self._phase_mask(phase) & (column_view(self.blocks) == 0)
        return int(np.unique(column_view(self.positions)[keep]).size)

    def trailing_counts(self, phase: str, token_pos: int) -> np.ndarray:
        """Per-(block, expert) selection counts of the trace's tail.

        Counts the trailing run of events in ``phase`` at ``token_pos``
        (a decode step's events, one per block, are the last recorded),
        without reading the rest of the history.
        """
        code = _PHASE_CODES.get(phase, -1)
        phases, positions = self.phases, self.positions
        start = len(phases)
        while start and phases[start - 1] == code \
                and positions[start - 1] == token_pos:
            start -= 1
        offsets = column_view(self.expert_offsets)[start:]
        counts = np.zeros((self.n_blocks, self.n_experts), dtype=np.int64)
        np.add.at(counts, (np.repeat(column_view(self.blocks)[start:],
                                     np.diff(offsets)),
                           column_view(self.experts)[offsets[0]:]), 1)
        return counts

    def decode_window_matrices(self, window: int) -> list[np.ndarray]:
        """Activation matrices over consecutive decode windows.

        Used for the paper's §VI-B analysis: expert-activation variation
        during decoding measured with a 15-token window.
        """
        if window < 1:
            raise ValueError("window must be positive")
        decode = self._phase_mask(DECODE)
        positions = column_view(self.positions)
        blocks = column_view(self.blocks)
        decode_positions = np.unique(positions[decode])
        if not decode_positions.size:
            return []
        n_windows = (decode_positions.size + window - 1) // window
        window_of = np.searchsorted(decode_positions, positions) // window
        owner = _owners(column_view(self.expert_offsets))
        take = decode[owner]
        owner = owner[take]
        counts = np.zeros(
            (n_windows, self.n_blocks, self.n_experts), dtype=np.float64
        )
        np.add.at(counts, (window_of[owner], blocks[owner],
                           column_view(self.experts)[take]), 1.0)
        block0 = np.unique(positions[decode & (blocks == 0)])
        window_tokens = np.bincount(
            np.searchsorted(decode_positions, block0) // window,
            minlength=n_windows,
        ).astype(np.float64)
        matrices = []
        for w in range(n_windows):
            tokens = max(window_tokens[w], 1.0)
            matrices.append(counts[w] / tokens)
        return matrices
